package sim

// eless is the (at, seq) dispatch order.
func eless(a, b *eslot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue holds the pending events: an indexed binary min-heap on
// (at, seq). Each slot records its heap index in pos, so Cancel removes it
// in O(log n) without a search. (at, seq) is a strict total order, so the
// dispatch sequence is the sorted order whatever the heap's shape.
//
// The heap is binary. A 4-ary heap sifts through half as many levels but
// makes up to four comparisons at each, and end to end it measured the
// same: over five alternating pairs of `sh bench/run.sh -reps 3 -trace 0`
// on a 2-vCPU VM its median tasks_per_s was 0.96x binary's on scale-batch
// and 1.00x on storm-serve, the two workloads with the most engine events.
type eventQueue struct {
	h []*eslot
}

func (q *eventQueue) len() int { return len(q.h) }

// peek returns the minimum slot without removing it, or nil when empty.
func (q *eventQueue) peek() *eslot {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

func (q *eventQueue) push(s *eslot) {
	s.pos = int32(len(q.h))
	q.h = append(q.h, s)
	q.up(len(q.h) - 1)
}

// pop removes and returns the minimum slot, or nil when empty.
func (q *eventQueue) pop() *eslot {
	if len(q.h) == 0 {
		return nil
	}
	s := q.h[0]
	q.remove(s)
	return s
}

// remove takes s out of the heap. The last slot fills its hole and sifts
// down, or up when it came from another subtree and is smaller than the
// hole's parent.
func (q *eventQueue) remove(s *eslot) {
	i := int(s.pos)
	last := len(q.h) - 1
	if i != last {
		q.h[i] = q.h[last]
		q.h[i].pos = int32(i)
	}
	q.h[last] = nil
	q.h = q.h[:last]
	if i < last && !q.down(i) {
		q.up(i)
	}
}

func (q *eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !eless(q.h[i], q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		q.h[i].pos = int32(i)
		q.h[parent].pos = int32(parent)
		i = parent
	}
}

// down sifts the slot at i toward the leaves, reporting whether it moved.
func (q *eventQueue) down(i int) bool {
	moved := false
	n := len(q.h)
	for {
		c := 2*i + 1
		if c >= n {
			return moved
		}
		if r := c + 1; r < n && eless(q.h[r], q.h[c]) {
			c = r
		}
		if !eless(q.h[c], q.h[i]) {
			return moved
		}
		q.h[i], q.h[c] = q.h[c], q.h[i]
		q.h[i].pos = int32(i)
		q.h[c].pos = int32(c)
		i = c
		moved = true
	}
}
