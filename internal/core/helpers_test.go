package core

import (
	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/clock"
)

// busVEPCfg aliases the bus VEP configuration for test brevity.
type busVEPCfg = bus.VEPConfig

func clockFake() *clock.Fake { return clock.NewFakeAtZero() }

// WithClock injects the time source used by every component.
func WithClock(clk clock.Clock) StackOption {
	return func(c *stackConfig) { c.clk = clk }
}

// WithSeed seeds randomized strategies.
func WithSeed(seed int64) StackOption {
	return func(c *stackConfig) { c.seed = seed }
}

// Clock returns the stack's time source.
func (s *Stack) Clock() clock.Clock { return s.clk }
