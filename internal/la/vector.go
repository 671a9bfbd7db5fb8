package la

import "math"

// Vector helpers. Vectors are plain []float64; these are free functions so
// block models can work on slices without wrapping.

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("la: Dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// AxpyTo computes dst = y + alpha*x.
func AxpyTo(dst []float64, alpha float64, x, y []float64) {
	if len(dst) != len(x) || len(x) != len(y) {
		panic("la: AxpyTo length mismatch")
	}
	for i := range dst {
		dst[i] = y[i] + alpha*x[i]
	}
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("la: Axpy length mismatch")
	}
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// ScaleVec multiplies x by s in place.
func ScaleVec(s float64, x []float64) {
	for i := range x {
		x[i] *= s
	}
}

// CopyVec copies src into dst.
func CopyVec(dst, src []float64) {
	if len(dst) != len(src) {
		panic("la: CopyVec length mismatch")
	}
	copy(dst, src)
}

// ZeroVec clears x.
func ZeroVec(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// NormInfVec returns max_i |x_i|.
func NormInfVec(x []float64) float64 {
	var mx float64
	for _, v := range x {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Norm2Vec returns the Euclidean norm of x.
func Norm2Vec(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// SubTo computes dst = a - b.
func SubTo(dst, a, b []float64) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("la: SubTo length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// WeightedRMS returns the weighted root-mean-square norm used by step
// controllers: sqrt(mean((x_i / (atol + rtol*|ref_i|))^2)).
func WeightedRMS(x, ref []float64, atol, rtol float64) float64 {
	if len(x) != len(ref) {
		panic("la: WeightedRMS length mismatch")
	}
	if len(x) == 0 {
		return 0
	}
	var s float64
	for i, v := range x {
		w := atol + rtol*math.Abs(ref[i])
		r := v / w
		s += r * r
	}
	return math.Sqrt(s / float64(len(x)))
}

// AllFinite reports whether every entry of x is finite. v-v is +0 for
// every finite v and NaN for ±Inf and NaN, so one subtraction and one
// comparison test each entry.
func AllFinite(x []float64) bool {
	for _, v := range x {
		if v-v != 0 {
			return false
		}
	}
	return true
}
