// Quickstart: assemble the complete tunable energy harvesting system
// with the calibrated defaults and charge the supercapacitor for a
// minute of simulated time under the proposed linearised state-space
// engine.
package main

import (
	"fmt"
	"log"

	"harvsim"
)

func main() {
	cfg := harvsim.DefaultConfig()
	cfg.Autonomous = false // plain charging, no controller activity
	cfg.InitialVc = 2.5    // storage partially charged

	h := harvsim.New(cfg)
	eng, err := h.Run(harvsim.Proposed, 60, 32)
	if err != nil {
		log.Fatalf("simulation failed: %v", err)
	}
	_ = eng

	fmt.Printf("after 60 s: Vc = %.4f V\n", h.LastVc())
	fmt.Printf("harvested %.1f uW on average\n", h.Energy.Harvested/60*1e6)
	fmt.Printf("delivered %.1f uW into the supercapacitor\n", h.Energy.ToStore/60*1e6)
}
