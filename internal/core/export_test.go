package core

// WithPollWakes sets RunConfig.pollWakes for the external tests, which
// import the scenario catalog and so cannot live in package core.
func WithPollWakes(cfg *RunConfig) { cfg.pollWakes = true }

// Events returns the engine's dispatch count for the run.
func (o *Outcome) Events() uint64 { return o.events }
