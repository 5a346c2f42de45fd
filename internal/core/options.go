package core

import (
	"fmt"

	"tableseg/internal/solvers"
)

// Validate rejects nonsensical configurations with ErrBadOptions before
// any pipeline work happens, so misconfiguration surfaces as one typed
// error instead of a mid-pipeline failure. Zero values that select
// documented defaults (MinSlotQuality 0, zero solver params) are valid.
func (o Options) Validate() error {
	switch o.Method {
	case CSP, Probabilistic, Combined:
	default:
		return fmt.Errorf("%w: unknown method %d", ErrBadOptions, o.Method)
	}
	if o.Solver != "" {
		if _, err := solvers.New(o.Solver, solvers.Config{}); err != nil {
			return fmt.Errorf("%w: %w", ErrBadOptions, err)
		}
	}
	if o.MinSlotQuality < 0 || o.MinSlotQuality > 1 {
		return fmt.Errorf("%w: MinSlotQuality %v outside [0,1]", ErrBadOptions, o.MinSlotQuality)
	}
	w := o.CSPParams.WSAT
	if w.Noise < 0 || w.Noise > 1 {
		return fmt.Errorf("%w: WSAT noise %v outside [0,1]", ErrBadOptions, w.Noise)
	}
	if w.MaxFlips < 0 || w.Restarts < 0 || w.TabuTenure < 0 || w.HardWeight < 0 {
		return fmt.Errorf("%w: negative WSAT parameter", ErrBadOptions)
	}
	p := o.PHMMParams
	if p.MaxColumns < 0 {
		return fmt.Errorf("%w: negative PHMM MaxColumns %d", ErrBadOptions, p.MaxColumns)
	}
	if p.Epsilon < 0 || p.Epsilon > 1 {
		return fmt.Errorf("%w: PHMM epsilon %v outside [0,1]", ErrBadOptions, p.Epsilon)
	}
	return nil
}
