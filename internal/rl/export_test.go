package rl

// DefaultConfig returns the paper's hyperparameters for a table of the
// given dimensions.
func DefaultConfig(states, actions int) Config {
	return Config{
		States:  states,
		Actions: actions,
		Alpha:   DefaultAlpha,
		Gamma:   DefaultGamma,
		Epsilon: DefaultEpsilon,
	}
}
