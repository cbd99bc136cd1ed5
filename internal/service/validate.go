package service

import (
	"fmt"
	"strings"

	"seqbist/internal/strategy"
)

// ValidateSpec is the single submission-time validation edge for a job
// spec's cheap shape checks: circuit/bench exclusivity, strategy
// validity, the deprecated lanes field's old range, and non-negative
// numeric limits. Submit, SubmitSweep (per member), and both CLIs route
// through it, so quota admission and new constraints slot in at one
// choke point. It deliberately does NOT
// resolve the circuit or parse the T0 — those cost real work and stay
// behind the service's upload limits — and an empty Strategy passes
// (the submission edge resolves the configured default first).
func ValidateSpec(spec JobSpec) error {
	switch {
	case spec.Circuit != "" && spec.Bench != "":
		return fmt.Errorf("set either circuit or bench, not both")
	case spec.Circuit == "" && strings.TrimSpace(spec.Bench) == "":
		return fmt.Errorf("one of circuit or bench is required")
	}
	return validateGenConfig(spec.Config)
}

// validateGenConfig checks the generation config alone (also the shape
// SubmitSweep applies to the shared config before any member overlays,
// and what the daemon applies to its flag-configured defaults).
func validateGenConfig(g GenConfig) error {
	if g.Strategy != "" && !strategy.Valid(g.Strategy) {
		return fmt.Errorf("unknown strategy %q (have %v)", g.Strategy, strategy.Names())
	}
	// Lanes is ignored, but the values it always rejected still get a
	// 400 so the HTTP contract does not move.
	if g.Lanes < 0 || g.Lanes%64 != 0 {
		return fmt.Errorf("lanes %d: must be 0 or a multiple of 64", g.Lanes)
	}
	if g.N < 0 {
		return fmt.Errorf("n %d: must be non-negative", g.N)
	}
	if g.ATPGMaxLen < 0 {
		return fmt.Errorf("atpg_max_len %d: must be non-negative", g.ATPGMaxLen)
	}
	if g.MaxOmissionTrials < 0 {
		return fmt.Errorf("max_omission_trials %d: must be non-negative", g.MaxOmissionTrials)
	}
	if g.Parallelism < 0 {
		return fmt.Errorf("parallelism %d: must be non-negative", g.Parallelism)
	}
	return nil
}
