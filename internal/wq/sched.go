package wq

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"time"

	"lfm/internal/alloc"
)

// Matcher selects the implementation of the master's task-to-worker
// matching loop. Both produce identical placement decisions — the indexed
// matcher is an exact optimization of the scan, proven by the differential
// tests — and differ only in how much work a scheduling round does.
type Matcher int

const (
	// MatcherIndexed (the default) matches through incrementally-maintained
	// indexes: a ready-task heap, a per-policy worker-capacity treap, a
	// per-cache-set affinity treap, and a dirty-worker set that lets a round
	// skip blocked tasks whose requirements cannot newly fit anywhere. Each
	// round costs O(placements x log W) instead of O(queue x W). It requires
	// the allocation strategy's Next to be a pure function of the state
	// mutated by Observe (true for all strategies in alloc).
	MatcherIndexed Matcher = iota
	// MatcherScan is the original O(queue x workers) linear scan, kept as
	// the oracle the indexed matcher is differentially tested against.
	MatcherScan
)

// String names the matcher.
func (mt Matcher) String() string {
	switch mt {
	case MatcherIndexed:
		return "indexed"
	case MatcherScan:
		return "scan"
	}
	return fmt.Sprintf("matcher(%d)", int(mt))
}

// SchedStats measures the matching loop's work. Both matchers fill the
// actual columns; the Scan* columns hold what the linear scan would have
// cost for the same rounds — measured directly under MatcherScan, computed
// exactly (queue length x pool size per round) under MatcherIndexed, since
// both matchers run the same rounds over the same queues.
type SchedStats struct {
	// Passes counts scheduling rounds (coalesced dispatch events).
	Passes int64
	// TasksExamined counts tasks for which a worker search ran.
	TasksExamined int64
	// CandidatesExamined counts workers tested for fit across all searches.
	CandidatesExamined int64
	// BlockedWakes counts blocked tasks re-examined because a dirty worker
	// could newly fit them (indexed matcher only).
	BlockedWakes int64
	// ScanTasksExamined and ScanCandidatesExamined are the linear scan's
	// costs for the same rounds: every queued task, times every worker.
	ScanTasksExamined      int64
	ScanCandidatesExamined int64
	// ElapsedNanos is wall-clock time spent inside scheduling rounds.
	ElapsedNanos int64
}

// SchedStats returns a snapshot of the matching loop's work counters.
func (m *Master) SchedStats() *SchedStats {
	s := m.schedStats
	return &s
}

// orderKey is the scheduling order of a ready task: higher priority first,
// then first-ready first. The key must not change while the task is queued,
// which is why Task.Priority is frozen after Submit.
func (t *Task) orderKey() tkey {
	return tkey{a: -float64(t.Priority), c: t.readySeq}
}

// readyHeap is a min-heap of ready tasks by orderKey, implementing
// container/heap.Interface.
type readyHeap []*Task

func (h readyHeap) Len() int            { return len(h) }
func (h readyHeap) Less(i, j int) bool  { return h[i].orderKey().less(h[j].orderKey()) }
func (h readyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *readyHeap) Push(x interface{}) { *h = append(*h, x.(*Task)) }
func (h *readyHeap) Pop() interface{} {
	old := *h
	n := len(old) - 1
	t := old[n]
	old[n] = nil
	*h = old[:n]
	return t
}

// workerMeta is the indexed matcher's per-worker bookkeeping. It hangs
// directly off the Worker (Worker.smeta) rather than in a side map: the
// dirty-worker fit gate reads it on every blocked-category check, and a map
// lookup there dominated scheduling CPU at scale.
type workerMeta struct {
	// joinSeq is the worker's join order, the tie-breaker first-fit and
	// cache-affinity inherit from the scan's iteration order.
	joinSeq int64
	// indexed is true while the worker is present in the indexes (alive and
	// not quarantined; a crashed-but-unsuspected worker stays in, exactly as
	// the scan keeps placing on it until suspicion fires).
	indexed bool
	// dirty marks the worker as having gained capacity (or joined) since the
	// last round, making it a candidate for unblocking blocked tasks.
	dirty bool
	// stale has bit i set while the worker sits on the stale list of the
	// affinity index in slot i: its entry there still carries the key and
	// capacity of before its last capacity change or cache add.
	stale uint32

	// Handles on the worker's index entries: capNode in the capacity index,
	// dirtyNode in the dirty index, aff[i] in the affinity index in slot i.
	// A node is allocated the first time the worker enters that index and
	// is reused on every re-key and re-entry after; membership is recorded
	// by indexed, dirty and the live slots, not by the handle.
	capNode, dirtyNode *tnode
	aff                []*tnode
}

// affHandle returns the worker's handle for affinity slot i.
func (mw *workerMeta) affHandle(i int) **tnode {
	if i >= len(mw.aff) {
		mw.aff = append(mw.aff, make([]*tnode, i+1-len(mw.aff))...)
	}
	return &mw.aff[i]
}

// setCap writes the worker's current capacity into its node and reports
// whether it changed.
func (n *tnode) setCap(w *Worker) bool {
	free, running := w.free(), int32(w.running)
	if n.v1 == free.Cores && n.v2 == free.MemoryMB && n.v3 == free.DiskMB && n.vi == running {
		return false
	}
	n.v1, n.v2, n.v3, n.vi = free.Cores, free.MemoryMB, free.DiskMB, running
	return true
}

// enter inserts w into tr under key k through the handle h, allocating the
// node only the first time w enters this index.
func enter(tr *treap, h **tnode, w *Worker, k tkey) {
	n := *h
	if n == nil {
		n = &tnode{w: w}
		*h = n
	}
	n.key = k
	n.setCap(w)
	tr.insert(n)
}

// rekey re-files the worker node n of tr under key k with the worker's
// current capacity, reusing the node: nothing happens if neither moved, an
// unchanged key re-pulls the aggregates on its root path, and a new key
// removes and reinserts the node.
func rekey(tr *treap, n *tnode, k tkey) {
	changed := n.setCap(n.w)
	switch {
	case k != n.key:
		tr.remove(n.key)
		n.key = k
		tr.insert(n)
	case changed:
		tr.repull(k)
	}
}

// affinityIndex orders the pool for one cache set (the sorted cacheable
// input names of a task): by cached bytes of the set descending, then free
// cores descending, then join order — the scan's cache-affinity argmax as a
// leftmost lookup. Its entries are repaired lazily: capacity changes and
// cache adds only list the worker on stale, and affinityFor re-keys the
// listed workers just before the index is searched.
type affinityIndex struct {
	key     string
	files   map[string]int64 // name -> bytes the set attributes to it
	tr      treap
	slot    int       // bit of workerMeta.stale and index into workerMeta.aff
	stale   []*Worker // indexed workers whose entry awaits a re-key
	lastUse int64
}

// maxAffinityIndexes caps live per-cache-set indexes; beyond it the
// least-recently-used index is dropped and rebuilt on demand.
const maxAffinityIndexes = 32

// Each live index owns one bit of workerMeta.stale and of schedState.slots.
const _ uint32 = 1 << (maxAffinityIndexes - 1)

// blockedEntry is one ready task the last rounds could not place, parked
// under its category until some worker plausibly fits it again.
type blockedEntry struct {
	t *Task
	// dec is the allocation the task was blocked under. For unpinned
	// entries it always equals the category's shared decision; pinned
	// entries (retry allocations) carry their own.
	dec    alloc.Decision
	pinned bool
}

// catBlocked holds one category's blocked tasks. Unpinned entries share one
// allocation decision (Next is a pure function of per-category state), so a
// strategy update re-checks one decision instead of every task; pinned
// entries carry per-task retry decisions and are checked individually.
type catBlocked struct {
	dec alloc.Decision
	// relabeled is set while dec is a decision no unpinned entry has been
	// examined under yet: the strategy moved the category's label since its
	// entries blocked. The next round offers such a category's entries
	// without the dirty-worker gate until one of them blocks again.
	relabeled bool
	unpinned  treap
	pinned    treap
}

// schedState is the indexed matcher (MatcherIndexed): the ready heap, the
// worker indexes, the blocked-task sets, and the dirty-worker set. See
// DESIGN.md §9 for the architecture and the equivalence argument.
type schedState struct {
	m *Master

	readyQ   readyHeap
	readySeq int64
	joinSeq  int64

	// cap is the single capacity index used by first/best/worst-fit;
	// cache-affinity uses per-cache-set aff indexes instead.
	cap     *treap
	aff     map[string]*affinityIndex
	affList []*affinityIndex // creation order, for deterministic iteration
	slots   uint32           // bit i set while an affinity index holds slot i
	clock   int64

	blocked   map[string]*catBlocked
	catOrder  []string // first-blocked order, for deterministic iteration
	nblocked  int
	relabeled int // categories with catBlocked.relabeled set

	// dirty lists workers flagged dirty since the last round (for the
	// end-of-round retire sweep); dirtyIx holds the same workers in a
	// capacity treap so the blocked-wake gate answers "does this decision
	// fit any dirty worker" in O(log dirty) instead of a linear scan —
	// a batched round can admit thousands of workers at one timestamp,
	// and the gate runs once per blocked category per placement.
	dirty   []*Worker
	dirtyIx treap

	// spare holds the nodes of blocked entries taken out for
	// re-examination, for block to reuse when the task blocks again.
	// schedulePassIndexed empties it at the end of every round, so no node
	// outlives a pass.
	spare []*tnode

	// sets interns cache sets (see cacheSetOf) under a key of their sorted
	// names and summed sizes; setKey and setInputs are the lookup's reused
	// scratch.
	sets      map[string]*cacheSet
	setKey    []byte
	setInputs []*File
}

func newSchedState(m *Master) *schedState {
	s := &schedState{
		m:       m,
		aff:     make(map[string]*affinityIndex),
		blocked: make(map[string]*catBlocked),
		sets:    make(map[string]*cacheSet),
	}
	if m.Cfg.Placement != PlaceCacheAffinity {
		s.cap = new(treap)
	}
	return s
}

// capKey orders the capacity index so the configured policy's choice is the
// leftmost fitting entry. Ties break by join order for first-fit (the scan
// took the first fitting worker in join order) and by node ID for best- and
// worst-fit (see pick in placement.go).
func (s *schedState) capKey(w *Worker) tkey {
	switch s.m.Cfg.Placement {
	case PlaceBestFit:
		return tkey{a: w.free().Cores, c: int64(w.Node.ID)}
	case PlaceWorstFit:
		return tkey{a: -w.free().Cores, c: int64(w.Node.ID)}
	default: // PlaceFirstFit
		return tkey{c: w.smeta.joinSeq}
	}
}

// affKey orders one affinity index: cached bytes of the set descending,
// free cores descending, join order ascending. Cached bytes accumulate in
// an int64 (exact, order-independent) before conversion.
func (s *schedState) affKey(ai *affinityIndex, w *Worker) tkey {
	var cached int64
	for name, size := range ai.files {
		if w.cache[name] {
			cached += size
		}
	}
	return tkey{a: -float64(cached), b: -w.free().Cores, c: w.smeta.joinSeq}
}

// cacheSet is a task's cacheable input set: the byte weight per name, and
// the sorted names joined by NUL, which keys the set's affinity index.
// Non-cacheable inputs never enter worker caches, so they cannot contribute
// to cachedBytes and are excluded. Tasks with equal sets share one.
type cacheSet struct {
	key   string
	files map[string]int64
}

// cacheSetOf returns the task's interned cache set. Inputs are frozen at
// Submit, so the set is memoized on the task: affinity placement reads it
// on every examination. Sets intern by names and summed sizes, since sets
// with the same names but different sizes weigh workers differently.
func (s *schedState) cacheSetOf(t *Task) *cacheSet {
	if t.cacheSet != nil {
		return t.cacheSet
	}
	inputs := s.setInputs[:0]
	for _, f := range t.Inputs {
		if f.Cacheable {
			inputs = append(inputs, f)
		}
	}
	slices.SortFunc(inputs, func(a, b *File) int { return strings.Compare(a.Name, b.Name) })
	// The key lists each distinct name, length-prefixed, with its summed
	// size. Sorting made duplicate names adjacent.
	key := s.setKey[:0]
	for i := 0; i < len(inputs); {
		name, size := inputs[i].Name, inputs[i].SizeBytes
		for i++; i < len(inputs) && inputs[i].Name == name; i++ {
			size += inputs[i].SizeBytes
		}
		key = binary.AppendUvarint(key, uint64(len(name)))
		key = append(key, name...)
		key = binary.LittleEndian.AppendUint64(key, uint64(size))
	}
	cs := s.sets[string(key)]
	if cs == nil {
		cs = &cacheSet{files: make(map[string]int64, len(inputs))}
		names := make([]string, 0, len(inputs))
		for _, f := range inputs {
			if _, dup := cs.files[f.Name]; !dup {
				names = append(names, f.Name)
			}
			cs.files[f.Name] += f.SizeBytes
		}
		cs.key = strings.Join(names, "\x00")
		s.sets[string(key)] = cs
	}
	clear(inputs)
	s.setInputs, s.setKey = inputs[:0], key[:0]
	t.cacheSet = cs
	return cs
}

// affinityFor returns the affinity index for the task's cache set, building
// it on demand and repairing its stale entries, ready to search.
func (s *schedState) affinityFor(t *Task) *affinityIndex {
	cs := s.cacheSetOf(t)
	ai := s.aff[cs.key]
	if ai == nil {
		if len(s.affList) >= maxAffinityIndexes {
			s.evictAffinity()
		}
		ai = &affinityIndex{key: cs.key, files: cs.files, slot: bits.TrailingZeros32(^s.slots)}
		s.slots |= 1 << ai.slot
		s.aff[cs.key] = ai
		s.affList = append(s.affList, ai)
		for _, w := range s.m.workers {
			if mw := w.smeta; mw != nil && mw.indexed {
				enter(&ai.tr, mw.affHandle(ai.slot), w, s.affKey(ai, w))
			}
		}
	}
	s.repair(ai)
	s.clock++
	ai.lastUse = s.clock
	return ai
}

// repair re-keys the affinity index's stale entries. A treap's shape is a
// function of its key set alone (priorities derive from the fixed key.c),
// so a repaired index is node-for-node the index an eager re-key after
// every change would have kept, whatever order the repairs run in.
func (s *schedState) repair(ai *affinityIndex) {
	bit := uint32(1) << ai.slot
	for _, w := range ai.stale {
		mw := w.smeta
		mw.stale &^= bit
		rekey(&ai.tr, mw.aff[ai.slot], s.affKey(ai, w))
	}
	clear(ai.stale)
	ai.stale = ai.stale[:0]
}

// markStale lists an indexed worker for re-keying at the index's next
// query.
func (ai *affinityIndex) markStale(w *Worker) {
	mw := w.smeta
	if bit := uint32(1) << ai.slot; mw.stale&bit == 0 {
		mw.stale |= bit
		ai.stale = append(ai.stale, w)
	}
}

// unlistStale takes an indexed worker off the index's stale list.
func (ai *affinityIndex) unlistStale(w *Worker) {
	mw := w.smeta
	bit := uint32(1) << ai.slot
	if mw.stale&bit == 0 {
		return
	}
	mw.stale &^= bit
	// Repair order does not matter, so a swap-delete will do.
	i := slices.Index(ai.stale, w)
	last := len(ai.stale) - 1
	ai.stale[i] = ai.stale[last]
	ai.stale[last] = nil
	ai.stale = ai.stale[:last]
}

// evictAffinity drops the least-recently-used affinity index and frees its
// slot. lastUse values are unique, so the victim is deterministic. Worker
// handles for the slot stay, for the next index built there to reuse.
func (s *schedState) evictAffinity() {
	victim := -1
	for i, ai := range s.affList {
		if victim < 0 || ai.lastUse < s.affList[victim].lastUse {
			victim = i
		}
	}
	ai := s.affList[victim]
	bit := uint32(1) << ai.slot
	for _, w := range ai.stale {
		w.smeta.stale &^= bit
	}
	s.slots &^= bit
	delete(s.aff, ai.key)
	s.affList = append(s.affList[:victim], s.affList[victim+1:]...)
}

// taskReady queues a ready task, stamping its scheduling sequence number.
func (s *schedState) taskReady(t *Task) {
	t.readySeq = s.readySeq
	s.readySeq++
	heap.Push(&s.readyQ, t)
}

// workerJoined registers a new worker with the indexes.
func (s *schedState) workerJoined(w *Worker) {
	w.smeta = &workerMeta{joinSeq: s.joinSeq}
	s.joinSeq++
	s.admit(w)
}

// workerLeft removes a disconnected worker from the indexes for good.
func (s *schedState) workerLeft(w *Worker) {
	s.exclude(w)
	w.smeta = nil
}

// admit inserts a worker into every index and marks it dirty (it may newly
// fit blocked tasks). Used on join and when quarantine lifts.
func (s *schedState) admit(w *Worker) {
	mw := w.smeta
	if mw == nil || mw.indexed {
		return
	}
	mw.indexed = true
	if s.cap != nil {
		enter(s.cap, &mw.capNode, w, s.capKey(w))
	}
	for _, ai := range s.affList {
		enter(&ai.tr, mw.affHandle(ai.slot), w, s.affKey(ai, w))
	}
	s.markDirty(w)
}

// exclude removes a worker from every index without forgetting it. Used on
// quarantine trips and as the first half of removal.
func (s *schedState) exclude(w *Worker) {
	mw := w.smeta
	if mw == nil || !mw.indexed {
		return
	}
	if s.cap != nil {
		s.cap.remove(mw.capNode.key)
	}
	for _, ai := range s.affList {
		ai.unlistStale(w)
		ai.tr.remove(mw.aff[ai.slot].key)
	}
	mw.indexed = false
	if mw.dirty {
		// A stale entry would keep the wake gate matching a gone worker;
		// the retire sweep tolerates the leftover slice entry.
		s.dirtyIx.remove(mw.dirtyNode.key)
		mw.dirty = false
	}
}

// markDirty records that a worker may newly fit blocked tasks.
func (s *schedState) markDirty(w *Worker) {
	mw := w.smeta
	if mw == nil || !mw.indexed || mw.dirty {
		return
	}
	mw.dirty = true
	s.dirty = append(s.dirty, w)
	enter(&s.dirtyIx, &mw.dirtyNode, w, tkey{c: mw.joinSeq})
}

// capacityChanged re-keys a worker after its free capacity moved: eagerly
// in the capacity and dirty indexes, lazily (see repair) in the affinity
// indexes. freed marks capacity releases, which additionally dirty the
// worker — an allocation can only shrink what fits, so it never wakes
// blocked tasks.
func (s *schedState) capacityChanged(w *Worker, freed bool) {
	mw := w.smeta
	if mw == nil || !mw.indexed {
		return
	}
	if s.cap != nil {
		rekey(s.cap, mw.capNode, s.capKey(w))
	}
	if mw.stale != s.slots {
		for _, ai := range s.affList {
			ai.markStale(w)
		}
	}
	if mw.dirty {
		// Keep the dirty index's capacity values fresh: mid-round
		// placements consume a dirty worker's free capacity, and the wake
		// gate prunes on these aggregates.
		rekey(&s.dirtyIx, mw.dirtyNode, mw.dirtyNode.key)
	} else if freed {
		s.markDirty(w)
	}
}

// cacheAdded marks a worker stale in the affinity indexes whose cache set
// contains the newly cached file. Cache contents never affect feasibility,
// only preference, so no worker turns dirty.
func (s *schedState) cacheAdded(w *Worker, f *File) {
	mw := w.smeta
	if mw == nil || !mw.indexed {
		return
	}
	for _, ai := range s.affList {
		if _, ok := ai.files[f.Name]; ok {
			ai.markStale(w)
		}
	}
}

// strategyObserved re-checks a category's shared allocation decision after
// the strategy observed a report (or charged a retry). If the decision
// changed, the category's unpinned entries are relabeled in place: the next
// round re-examines them in scheduling order under the new decision, as the
// scan re-examines every queued task, but stops at the first that blocks.
// Capacity only shrinks inside a round and Next is constant between
// observations, so every later entry would block under the same decision
// too. No round is scheduled here: the scan matcher also only re-examines
// blocked tasks at the next naturally-occurring round.
func (s *schedState) strategyObserved(cat string) {
	cb := s.blocked[cat]
	if cb == nil || cb.unpinned.len() == 0 {
		return
	}
	dec := s.m.Cfg.Strategy.Next(cat)
	if dec == cb.dec {
		return
	}
	cb.dec = dec
	s.setRelabeled(cb, true)
}

// setRelabeled sets or clears a category's relabeled mark.
func (s *schedState) setRelabeled(cb *catBlocked, on bool) {
	if cb.relabeled != on {
		cb.relabeled = on
		if on {
			s.relabeled++
		} else {
			s.relabeled--
		}
	}
}

// block parks a ready task that no worker currently fits.
func (s *schedState) block(t *Task, dec alloc.Decision) {
	cb := s.blocked[t.Category]
	if cb == nil {
		cb = &catBlocked{}
		s.blocked[t.Category] = cb
		s.catOrder = append(s.catOrder, t.Category)
	}
	var n *tnode
	if k := len(s.spare) - 1; k >= 0 {
		// insert resets the links and priority; the values are reset here.
		n = s.spare[k]
		s.spare[k] = nil
		s.spare = s.spare[:k]
		*n = tnode{be: n.be}
	} else {
		n = &tnode{be: new(blockedEntry)}
	}
	e := n.be
	*e = blockedEntry{t: t, dec: dec, pinned: t.retryNext != nil}
	n.key = t.orderKey()
	if e.pinned {
		// Pinned nodes carry their negated effective requirement as treap
		// values, so bestBlockedCandidate's scan can prune whole subtrees no
		// dirty worker could satisfy: max over a subtree of a negated
		// requirement is the negated minimum requirement.
		if dec.WholeNode {
			// Needs an idle worker, not resources: vi 0 flags it (minVi == 0
			// means "subtree holds a whole-node entry") and -Inf requirements
			// keep it from weakening the resource prune for its subtree.
			n.v1, n.v2, n.v3 = math.Inf(-1), math.Inf(-1), math.Inf(-1)
		} else {
			req := dec.Request
			if req.Cores <= 0 {
				req.Cores = 1 // mirror fitsOn's default
			}
			n.v1, n.v2, n.v3 = -req.Cores, -req.MemoryMB, -req.DiskMB
			n.vi = 1
		}
		cb.pinned.insert(n)
	} else {
		cb.dec = dec
		s.setRelabeled(cb, false)
		cb.unpinned.insert(n)
	}
	s.nblocked++
}

// unblock removes one blocked entry prior to re-examination, leaving its
// node for block to reuse.
func (s *schedState) unblock(cb *catBlocked, n *tnode) {
	if n.be.pinned {
		cb.pinned.remove(n.key)
	} else {
		cb.unpinned.remove(n.key)
		if cb.unpinned.len() == 0 {
			s.setRelabeled(cb, false)
		}
	}
	s.nblocked--
	s.spare = append(s.spare, n)
}

// decFitsDirty reports whether the decision fits any dirty worker right
// now — the gate for waking blocked tasks. It searches the dirty-worker
// capacity treap, so the common negative answer costs one aggregate test
// at the root rather than a scan of the dirty set.
func (s *schedState) decFitsDirty(dec alloc.Decision) bool {
	if s.dirtyIx.root == nil {
		return false
	}
	var may func(*tnode) bool
	if dec.WholeNode {
		may = func(n *tnode) bool { return n.minVi == 0 }
	} else {
		req := dec.Request
		if req.Cores <= 0 {
			req.Cores = 1
		}
		// Mirror Resources.Fits' epsilon so pruning never rejects a worker
		// the scan would accept.
		may = func(n *tnode) bool {
			return req.Cores <= n.maxV1+1e-9 && req.MemoryMB <= n.maxV2+1e-9 && req.DiskMB <= n.maxV3+1e-9
		}
	}
	m := s.m
	visits := 0
	return s.dirtyIx.findFit(may, func(n *tnode) bool { return m.fitsOn(n.w, dec) }, &visits) != nil
}

// bestBlockedCandidate returns the scheduling-order-first blocked entry
// that is either the first unpinned entry of a relabeled category or one
// whose decision fits a dirty worker, or nil; wake reports the latter. A
// woken task is guaranteed to place: the fitting dirty worker is indexed,
// so the subsequent full search at least finds it. A relabeled entry is
// only a candidate: its new decision may fit no worker at all, and then it
// blocks again and clears the mark.
func (s *schedState) bestBlockedCandidate() (cb *catBlocked, best *tnode, wake bool) {
	root := s.dirtyIx.root
	if root == nil && s.relabeled == 0 || s.nblocked == 0 {
		return nil, nil, false
	}
	// Frontier of the dirty set, read off the dirty index's root aggregates:
	// per-dimension maximum free capacity, and whether any dirty worker sits
	// idle. Pinned entries store their negated effective requirement as
	// treap values (see block), so -maxV is a pinned subtree's minimum
	// requirement; a subtree whose minimum exceeds the frontier on some
	// dimension cannot fit any dirty worker (each dimension's max relaxes
	// "one worker fits all dimensions") and the scan prunes it wholesale.
	// Without this, every round rescanned every parked retry.
	dirtyIdle := root != nil && root.minVi == 0
	may := func(n *tnode) bool {
		if dirtyIdle && n.minVi == 0 {
			return true
		}
		return -n.maxV1 <= root.maxV1+1e-9 &&
			-n.maxV2 <= root.maxV2+1e-9 &&
			-n.maxV3 <= root.maxV3+1e-9
	}
	for _, cat := range s.catOrder {
		c := s.blocked[cat]
		if c.unpinned.len() > 0 && (c.relabeled || s.decFitsDirty(c.dec)) {
			if n := c.unpinned.min(); best == nil || n.key.less(best.key) {
				best, cb, wake = n, c, !c.relabeled
			}
		}
		if c.pinned.len() > 0 && root != nil {
			visits := 0
			n := c.pinned.findFit(may, func(n *tnode) bool { return s.decFitsDirty(n.be.dec) }, &visits)
			if n != nil && (best == nil || n.key.less(best.key)) {
				best, cb, wake = n, c, true
			}
		}
	}
	return cb, best, wake
}

// selectWorker finds the placement-policy-first worker fitting the
// decision, excluding at most one worker (speculation avoids the
// straggler's own host). It returns the worker (nil if none fits) and the
// number of candidates tested for fit.
func (s *schedState) selectWorker(t *Task, dec alloc.Decision, exclude *Worker) (*Worker, int) {
	ix := s.cap
	if s.m.Cfg.Placement == PlaceCacheAffinity {
		ix = &s.affinityFor(t).tr
	}
	var may func(*tnode) bool
	if dec.WholeNode {
		// A whole-node placement needs an idle worker; running counts are
		// integers, so the aggregate test is exact.
		may = func(n *tnode) bool { return n.minVi == 0 }
	} else {
		req := dec.Request
		if req.Cores <= 0 {
			req.Cores = 1
		}
		// Mirror Resources.Fits' epsilon so pruning never rejects a subtree
		// the scan would accept.
		may = func(n *tnode) bool {
			return req.Cores <= n.maxV1+1e-9 && req.MemoryMB <= n.maxV2+1e-9 && req.DiskMB <= n.maxV3+1e-9
		}
	}
	m := s.m
	ok := func(n *tnode) bool { return n.w != exclude && m.fitsOn(n.w, dec) }
	visits := 0
	found := ix.findFit(may, ok, &visits)
	if found == nil {
		return nil, visits
	}
	return found.w, visits
}

// examine searches a worker for one task and either starts the attempt or
// blocks the task under the decision that failed to fit.
func (s *schedState) examine(t *Task) {
	m := s.m
	dec := m.decide(t)
	st := &m.schedStats
	st.TasksExamined++
	w, visits := s.selectWorker(t, dec, nil)
	st.CandidatesExamined += int64(visits)
	if w == nil {
		s.block(t, dec)
		return
	}
	m.issue(t, dec)
	m.startAttempt(t, w, dec, false)
}

// schedulePassIndexed is one scheduling round of the indexed matcher: merge
// the ready heap with wakeable blocked entries in scheduling order, place
// or block each, then retire the dirty set. Capacity only shrinks inside a
// round (releases arrive as separate events), so a task blocked here stays
// unplaceable for the rest of the round.
func (m *Master) schedulePassIndexed() {
	s := m.sched
	start := time.Now()
	st := &m.schedStats
	st.Passes++
	candBefore := st.CandidatesExamined
	queued := int64(len(s.readyQ) + s.nblocked)
	st.ScanTasksExamined += queued
	st.ScanCandidatesExamined += queued * int64(len(m.workers))
	for {
		cb, bn, wake := s.bestBlockedCandidate()
		if len(s.readyQ) > 0 {
			top := s.readyQ[0]
			if bn == nil || top.orderKey().less(bn.key) {
				s.examine(heap.Pop(&s.readyQ).(*Task))
				continue
			}
		}
		if bn == nil {
			break
		}
		s.unblock(cb, bn)
		if wake {
			// A relabeled entry is not a wake: the scan re-examines every
			// queued task under a new label anyway.
			st.BlockedWakes++
		}
		s.examine(bn.be.t)
	}
	// The dirty index holds exactly the workers still flagged, all of them
	// on the dirty list, so retiring them empties it. Their nodes are
	// unlinked as treap.remove would.
	for _, w := range s.dirty {
		if mw := w.smeta; mw != nil && mw.dirty {
			mw.dirty = false
			mw.dirtyNode.left, mw.dirtyNode.right = nil, nil
		}
	}
	clear(s.dirty)
	s.dirty = s.dirty[:0]
	s.dirtyIx = treap{}
	clear(s.spare)
	s.spare = s.spare[:0]
	elapsed := time.Since(start)
	st.ElapsedNanos += elapsed.Nanoseconds()
	m.met.onSchedPass(st.CandidatesExamined-candBefore, elapsed)
}

// queueLen counts ready-but-unplaced tasks (queued plus blocked).
func (s *schedState) queueLen() int { return len(s.readyQ) + s.nblocked }

// check verifies every index against ground truth: membership (exactly the
// non-quarantined pool), keys and capacity values (recomputed from current
// worker state), treap aggregates, and blocked/ready task states. It backs
// CheckInvariants, which chaos runs call after every schedule.
func (s *schedState) check() error {
	m := s.m
	indexed := 0
	for _, w := range m.workers {
		mw := w.smeta
		if mw == nil {
			return fmt.Errorf("wq: worker %d has no scheduler meta", w.Node.ID)
		}
		if mw.indexed == w.quarantined {
			return fmt.Errorf("wq: worker %d indexed=%v but quarantined=%v", w.Node.ID, mw.indexed, w.quarantined)
		}
		if mw.indexed {
			indexed++
		}
	}
	// checkIndex verifies one worker index: it holds, through their
	// handles, exactly the want workers for which handle is non-nil, under
	// fresh keys and capacity values and with exact aggregates.
	checkIndex := func(name string, tr *treap, want int, handle func(*workerMeta) *tnode, key func(*Worker) tkey) error {
		if got := tr.len(); got != want {
			return fmt.Errorf("wq: %s index holds %d workers, want %d", name, got, want)
		}
		var err error
		tr.each(func(n *tnode) {
			if err != nil {
				return
			}
			w := n.w
			mw := w.smeta
			if mw == nil || !mw.indexed {
				err = fmt.Errorf("wq: %s index holds unindexed worker %d", name, w.Node.ID)
				return
			}
			if handle(mw) != n {
				err = fmt.Errorf("wq: %s handle for worker %d is stale", name, w.Node.ID)
				return
			}
			if want := key(w); n.key != want {
				err = fmt.Errorf("wq: %s key for worker %d is %v, want %v", name, w.Node.ID, n.key, want)
				return
			}
			free := w.free()
			if n.v1 != free.Cores || n.v2 != free.MemoryMB || n.v3 != free.DiskMB || int(n.vi) != w.running {
				err = fmt.Errorf("wq: %s capacity for worker %d is stale", name, w.Node.ID)
			}
		})
		if err != nil {
			return err
		}
		return checkAggregates(name, tr.root)
	}
	if s.cap != nil {
		capNode := func(mw *workerMeta) *tnode { return mw.capNode }
		if err := checkIndex("capacity", s.cap, indexed, capNode, s.capKey); err != nil {
			return err
		}
	}
	if err := s.checkStale(); err != nil {
		return err
	}
	for _, ai := range s.affList {
		s.repair(ai)
		name := fmt.Sprintf("affinity[%q]", ai.key)
		handle := func(mw *workerMeta) *tnode { return mw.aff[ai.slot] }
		key := func(w *Worker) tkey { return s.affKey(ai, w) }
		if err := checkIndex(name, &ai.tr, indexed, handle, key); err != nil {
			return err
		}
	}
	// The dirty index must hold exactly the dirty workers, with fresh
	// capacity values (the wake gate prunes on its aggregates).
	ndirty := 0
	for _, w := range m.workers {
		if w.smeta.dirty {
			ndirty++
		}
	}
	dirtyNode := func(mw *workerMeta) *tnode {
		if mw.dirty {
			return mw.dirtyNode
		}
		return nil
	}
	joinKey := func(w *Worker) tkey { return tkey{c: w.smeta.joinSeq} }
	if err := checkIndex("dirty", &s.dirtyIx, ndirty, dirtyNode, joinKey); err != nil {
		return err
	}
	nblocked, relabeled := 0, 0
	for _, cat := range s.catOrder {
		cb := s.blocked[cat]
		if cb.relabeled {
			relabeled++
			if cb.unpinned.len() == 0 {
				return fmt.Errorf("wq: category %q relabeled with no unpinned entries", cat)
			}
		}
		var err error
		countStates := func(pinned bool) func(*tnode) {
			return func(n *tnode) {
				nblocked++
				if err != nil {
					return
				}
				e := n.be
				if e.pinned != pinned {
					err = fmt.Errorf("wq: blocked entry for task %d in wrong treap", e.t.ID)
					return
				}
				if e.t.State != TaskReady {
					err = fmt.Errorf("wq: blocked task %d in state %d, want ready", e.t.ID, e.t.State)
					return
				}
				if pinned {
					// Pinned nodes carry their negated effective requirement
					// for the bestBlockedCandidate prune.
					if e.dec.WholeNode {
						if !math.IsInf(n.v1, -1) || n.vi != 0 {
							err = fmt.Errorf("wq: whole-node blocked task %d has prune values (%v, vi=%d)", e.t.ID, n.v1, n.vi)
						}
						return
					}
					req := e.dec.Request
					if req.Cores <= 0 {
						req.Cores = 1
					}
					if n.v1 != -req.Cores || n.v2 != -req.MemoryMB || n.v3 != -req.DiskMB || n.vi != 1 {
						err = fmt.Errorf("wq: blocked task %d prune values stale", e.t.ID)
					}
				}
			}
		}
		cb.unpinned.each(countStates(false))
		cb.pinned.each(countStates(true))
		if err != nil {
			return err
		}
		if err := checkAggregates(fmt.Sprintf("blocked[%q] pinned", cat), cb.pinned.root); err != nil {
			return err
		}
	}
	if nblocked != s.nblocked {
		return fmt.Errorf("wq: blocked count %d but treaps hold %d", s.nblocked, nblocked)
	}
	if relabeled != s.relabeled {
		return fmt.Errorf("wq: relabeled count %d but %d categories are marked", s.relabeled, relabeled)
	}
	for _, t := range s.readyQ {
		if t.State != TaskReady {
			return fmt.Errorf("wq: queued task %d in state %d, want ready", t.ID, t.State)
		}
	}
	return nil
}

// checkStale verifies the lazy-repair bookkeeping: a worker has an affinity
// slot's stale bit set if and only if it is listed, once, on that index's
// stale list, and no bit is set for a slot without a live index.
func (s *schedState) checkStale() error {
	for _, ai := range s.affList {
		bit := uint32(1) << ai.slot
		listed := make(map[*Worker]bool, len(ai.stale))
		for _, w := range ai.stale {
			mw := w.smeta
			if mw == nil || !mw.indexed || mw.stale&bit == 0 || listed[w] {
				return fmt.Errorf("wq: affinity[%q] stale list holds worker %d without its stale bit, unindexed or twice", ai.key, w.Node.ID)
			}
			listed[w] = true
		}
		for _, w := range s.m.workers {
			if w.smeta.stale&bit != 0 && !listed[w] {
				return fmt.Errorf("wq: worker %d stale in affinity[%q] but not listed", w.Node.ID, ai.key)
			}
		}
	}
	for _, w := range s.m.workers {
		if extra := w.smeta.stale &^ s.slots; extra != 0 {
			return fmt.Errorf("wq: worker %d has stale bits %#x for dead affinity slots", w.Node.ID, extra)
		}
	}
	return nil
}

// checkAggregates recomputes a subtree's aggregates bottom-up and compares
// them with the stored values.
func checkAggregates(name string, n *tnode) error {
	if n == nil {
		return nil
	}
	if err := checkAggregates(name, n.left); err != nil {
		return err
	}
	if err := checkAggregates(name, n.right); err != nil {
		return err
	}
	got := *n
	n.pull()
	if got.maxV1 != n.maxV1 || got.maxV2 != n.maxV2 || got.maxV3 != n.maxV3 ||
		got.minVi != n.minVi || got.size != n.size {
		return fmt.Errorf("wq: %s index aggregates stale at key %v", name, n.key)
	}
	return nil
}
