package pypkg

import (
	"sort"
)

// Resolution is a complete, conflict-free assignment of package versions
// satisfying a set of root requirements and all transitive dependencies.
type Resolution struct {
	// Packages is in dependency order: every package appears after all of
	// its dependencies (installation order).
	Packages []*Package

	byName map[string]*Package
}

// Lookup returns the selected version of the named package.
func (r *Resolution) Lookup(name string) (*Package, bool) {
	p, ok := r.byName[normalizeName(name)]
	return p, ok
}

// Len reports the number of packages in the closure (the paper's
// "dependency count" column in Table II).
func (r *Resolution) Len() int { return len(r.Packages) }

// TotalArchiveBytes sums compressed download sizes across the closure.
func (r *Resolution) TotalArchiveBytes() int64 {
	var n int64
	for _, p := range r.Packages {
		n += p.ArchiveBytes
	}
	return n
}

// TotalInstalledBytes sums on-disk sizes across the closure.
func (r *Resolution) TotalInstalledBytes() int64 {
	var n int64
	for _, p := range r.Packages {
		n += p.InstalledBytes
	}
	return n
}

// TotalFiles sums installed file counts across the closure.
func (r *Resolution) TotalFiles() int {
	var n int
	for _, p := range r.Packages {
		n += p.FileCount
	}
	return n
}

// Resolve computes a dependency closure for the given root requirements
// using backtracking over candidate versions (newest first), the same
// behaviour users get from the Conda solver the paper relies on.
func (ix *Index) Resolve(roots []Spec) (*Resolution, error) {
	st := &solveState{
		ix:       ix,
		assigned: make(map[string]*Package),
		demands:  make(map[string][]Spec),
	}
	// Record root demands first so conflicts among them are caught.
	for _, s := range roots {
		st.demands[normalizeName(s.Name)] = append(st.demands[normalizeName(s.Name)], s)
	}
	if err := st.solve(roots); err != nil {
		return nil, err
	}
	res := &Resolution{
		byName: st.assigned,
	}
	res.Packages = topoOrder(st.assigned)
	return res, nil
}

type solveState struct {
	ix       *Index
	assigned map[string]*Package
	demands  map[string][]Spec
}

// solve satisfies the pending requirement list depth-first with backtracking.
func (st *solveState) solve(pending []Spec) error {
	if len(pending) == 0 {
		return nil
	}
	spec := pending[0]
	rest := pending[1:]
	name := normalizeName(spec.Name)

	if p := st.assigned[name]; p != nil {
		// Already chosen: the choice must satisfy this spec too.
		if spec.Matches(p.Version) {
			return st.solve(rest)
		}
		return &ConflictError{Name: name, Demands: st.demands[name]}
	}

	candidates := st.ix.Candidates(name)
	if len(candidates) == 0 {
		return &NotFoundError{Spec: spec}
	}

	var lastErr error
	for _, cand := range candidates {
		if !st.satisfiesAll(name, cand.Version) {
			continue
		}
		st.assigned[name] = cand
		// Push this candidate's dependencies, recording demands for
		// conflict reporting and for constraining later choices.
		added := make([]string, 0, len(cand.Requires))
		next := make([]Spec, 0, len(cand.Requires)+len(rest))
		next = append(next, cand.Requires...)
		next = append(next, rest...)
		for _, dep := range cand.Requires {
			dn := normalizeName(dep.Name)
			st.demands[dn] = append(st.demands[dn], dep)
			added = append(added, dn)
		}
		err := st.solve(next)
		if err == nil {
			return nil
		}
		lastErr = err
		// Backtrack.
		delete(st.assigned, name)
		for _, dn := range added {
			st.demands[dn] = st.demands[dn][:len(st.demands[dn])-1]
		}
	}
	if lastErr == nil {
		lastErr = &ConflictError{Name: name, Demands: st.demands[name]}
	}
	return lastErr
}

// satisfiesAll checks v against every demand recorded for name so far.
func (st *solveState) satisfiesAll(name string, v Version) bool {
	for _, d := range st.demands[name] {
		if !d.Matches(v) {
			return false
		}
	}
	return true
}

// topoOrder returns packages with dependencies before dependents; ties are
// broken alphabetically for determinism.
func topoOrder(assigned map[string]*Package) []*Package {
	var order []*Package
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(name string)
	visit = func(name string) {
		p := assigned[name]
		if p == nil || state[name] != 0 {
			return // cycles cannot occur: state 1 is simply skipped
		}
		state[name] = 1
		deps := make([]string, 0, len(p.Requires))
		for _, d := range p.Requires {
			deps = append(deps, normalizeName(d.Name))
		}
		sort.Strings(deps)
		for _, d := range deps {
			visit(d)
		}
		state[name] = 2
		order = append(order, p)
	}
	names := make([]string, 0, len(assigned))
	for n := range assigned {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		visit(n)
	}
	return order
}
