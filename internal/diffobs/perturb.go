package diffobs

import (
	"fmt"
	"sort"

	"lfm/internal/core"
)

// Perturbations are named RunConfig mutations the gate uses for its
// self-test: `lfmdiff gate -perturb NAME` runs the canned scenarios with
// the mutation applied and must *fail* against the committed baselines —
// proving the gate catches a seeded regression end to end. They are the
// "behaviour-changing code edit" stand-in that needs no code edit.
var perturbations = map[string]func(*core.RunConfig){
	// workers-halved cuts the pool in half: makespan, queue depth, and
	// latency quantiles all regress.
	"workers-halved": func(cfg *core.RunConfig) {
		if cfg.Workers > 1 {
			cfg.Workers /= 2
		}
	},
}

// Perturbation resolves a named gate self-test mutation.
func Perturbation(name string) (func(*core.RunConfig), error) {
	fn, ok := perturbations[name]
	if !ok {
		return nil, fmt.Errorf("diffobs: unknown perturbation %q (have %v)", name, PerturbationNames())
	}
	return fn, nil
}

// PerturbationNames lists the registered perturbations, sorted.
func PerturbationNames() []string {
	names := make([]string, 0, len(perturbations))
	for n := range perturbations {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
