package replay

// WithSequentialPostPass returns cfg selecting the sequential reference
// post-pass, for the external determinism tests.
func WithSequentialPostPass(cfg Config) Config {
	cfg.sequentialPostPass = true
	return cfg
}
