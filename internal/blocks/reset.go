package blocks

// core.LineariseResetter implementations. Each block's Linearise skips
// restamping when its cached operating point (last PWL segment, last
// tangent, stamped flag) still covers the new one; reusing a block for a
// fresh run must discard those caches, or the rerun would start from the
// previous run's final tangent — within tolerance, but not bit-identical
// to a freshly assembled system. See core.System.ResetLinearisation.

// ResetLinearisation implements core.LineariseResetter. The cached
// Duffing tangent point zLin is discarded too: a reused run must stamp
// its first cubic tangent at the fresh initial displacement, not at the
// previous run's final one.
func (g *Microgenerator) ResetLinearisation() {
	g.dirty, g.stamped = true, false
	g.zLin = 0
}

// ResetLinearisation implements core.LineariseResetter.
func (d *Dickson) ResetLinearisation() {
	d.dirty = true
	d.moved = 0
	for i := range d.segs {
		d.segs[i] = 0
		d.g[i], d.j[i] = 0, 0
	}
}

// ResetLinearisation implements core.LineariseResetter.
func (s *Supercap) ResetLinearisation() {
	s.dirty = true
	s.lastJac = [4]float64{}
}

// ResetLinearisation implements core.LineariseResetter.
func (s *ACSource) ResetLinearisation() { s.stamped = false }

// ResetLinearisation implements core.LineariseResetter.
func (r *Resistor) ResetLinearisation() { r.dirty, r.stamped = true, false }

// ResetLinearisation implements core.LineariseResetter.
func (g *Piezo) ResetLinearisation() { g.stamped = false }

// ResetLinearisation implements core.LineariseResetter.
func (g *Electrostatic) ResetLinearisation() { g.stamped = false }
