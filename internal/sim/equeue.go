package sim

import "math"

// eless is the (at, seq) dispatch order.
func eless(a, b *eslot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// nearHeap marks a slot held in the calendar's near-term heap rather than in
// a calendar bucket.
const nearHeap = int32(-1)

const minBuckets = 16

// calendarQueue is a calendar/ladder queue (after Brown's 1988 calendar
// queue): future events hash into power-of-two day buckets by
// day = floor(at/width), and the events of the current day curK live in a
// small binary "near" heap that serves pops in (at, seq) order. Push, pop,
// and remove are O(1) amortized for the bucket part and O(log d) for the
// near heap, where d is the population of the current day — against the
// O(log n) over the whole pending set that a global heap pays.
//
// Invariants:
//   - every slot is either in near (b == nearHeap) or in bucket s.b with
//     s.day > curK;
//   - near is a binary min-heap on (at, seq);
//   - day ordering is consistent with at ordering (floor and float division
//     are monotone), so draining near before advancing curK is correct.
//
// The bucket count tracks the population (grow at n > 2·buckets, shrink at
// n < buckets/2) and each resize re-derives width from the observed event
// span so that one day holds O(1) events on average. Days with pathological
// same-timestamp bursts degrade to the near heap's O(log d), not to a
// linear rescan.
type calendarQueue struct {
	buckets [][]*eslot
	mask    int64
	width   float64
	curK    int64
	near    []*eslot
	n       int
}

func newCalendarQueue() *calendarQueue {
	return &calendarQueue{
		buckets: make([][]*eslot, minBuckets),
		mask:    minBuckets - 1,
		width:   1,
	}
}

func (q *calendarQueue) len() int { return q.n }

func (q *calendarQueue) dayOf(at Time) int64 {
	return int64(math.Floor(float64(at) / q.width))
}

func (q *calendarQueue) push(s *eslot) {
	if q.n >= 2*len(q.buckets) {
		q.resize()
	}
	q.n++
	d := q.dayOf(s.at)
	s.day = d
	if q.n == 1 {
		// Empty queue: re-anchor the cursor so pops need no hunt.
		q.curK = d
	}
	if d <= q.curK {
		q.nearPush(s)
		return
	}
	b := int32(d & q.mask)
	s.b = b
	s.pos = int32(len(q.buckets[b]))
	q.buckets[b] = append(q.buckets[b], s)
}

// pop removes and returns the minimum slot, or nil when empty. A popped slot
// may be handed back via push (the engine peeks by pop + push when it hits a
// RunUntil limit or a deferred-drain boundary).
func (q *calendarQueue) pop() *eslot {
	if q.n == 0 {
		return nil
	}
	if len(q.near) == 0 {
		q.advance()
	}
	s := q.nearPopMin()
	q.n--
	if q.n < len(q.buckets)/2 && len(q.buckets) > minBuckets {
		q.resize()
	}
	return s
}

func (q *calendarQueue) remove(s *eslot) {
	if s.b == nearHeap {
		q.nearRemove(s)
	} else {
		b := q.buckets[s.b]
		last := b[len(b)-1]
		b[s.pos] = last
		last.pos = s.pos
		b[len(b)-1] = nil
		q.buckets[s.b] = b[:len(b)-1]
	}
	q.n--
	if q.n < len(q.buckets)/2 && len(q.buckets) > minBuckets {
		q.resize()
	}
}

// advance moves the cursor to the next populated day and migrates that
// day's slots into the near heap. Called only with near empty and n > 0.
func (q *calendarQueue) advance() {
	nb := int64(len(q.buckets))
	day := q.curK
	found := false
	for hop := int64(1); hop <= nb; hop++ {
		k := q.curK + hop
		for _, s := range q.buckets[k&q.mask] {
			if s.day == k {
				day, found = k, true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		// Sparse horizon: every remaining event lies beyond a full calendar
		// year. Jump straight to the earliest populated day.
		minDay := int64(math.MaxInt64)
		for _, b := range q.buckets {
			for _, s := range b {
				if s.day < minDay {
					minDay = s.day
				}
			}
		}
		day = minDay
	}
	q.migrate(day)
}

// migrate advances curK to day and moves that day's slots from its bucket
// into the near heap.
func (q *calendarQueue) migrate(day int64) {
	q.curK = day
	bi := int32(day & q.mask)
	b := q.buckets[bi]
	keep := b[:0]
	for _, s := range b {
		if s.day == day {
			s.b = nearHeap
			q.near = append(q.near, s)
		} else {
			s.pos = int32(len(keep))
			keep = append(keep, s)
		}
	}
	for i := len(keep); i < len(b); i++ {
		b[i] = nil
	}
	q.buckets[bi] = keep
	// Heapify: sift down from the last parent.
	for i := len(q.near)/2 - 1; i >= 0; i-- {
		q.nearDown(i)
	}
	for i, s := range q.near {
		s.pos = int32(i)
	}
}

// resize rebuilds the bucket array for the current population and re-derives
// the day width from the observed event-time span.
func (q *calendarQueue) resize() {
	all := make([]*eslot, 0, q.n)
	for _, b := range q.buckets {
		all = append(all, b...)
	}
	all = append(all, q.near...)

	nb := minBuckets
	for nb < q.n && nb < 1<<21 {
		nb <<= 1
	}
	q.buckets = make([][]*eslot, nb)
	q.mask = int64(nb - 1)
	q.near = q.near[:0]

	if len(all) > 1 {
		minAt, maxAt := all[0].at, all[0].at
		for _, s := range all[1:] {
			if s.at < minAt {
				minAt = s.at
			}
			if s.at > maxAt {
				maxAt = s.at
			}
		}
		w := float64(maxAt-minAt) / float64(len(all))
		if w < 1e-9 {
			w = 1e-9
		}
		q.width = w
	}

	if len(all) == 0 {
		return
	}
	minDay := int64(math.MaxInt64)
	for _, s := range all {
		s.day = q.dayOf(s.at)
		if s.day < minDay {
			minDay = s.day
		}
	}
	// Re-anchor below every day so each slot lands in a bucket; the next pop
	// hunts forward from here.
	q.curK = minDay - 1
	for _, s := range all {
		b := int32(s.day & q.mask)
		s.b = b
		s.pos = int32(len(q.buckets[b]))
		q.buckets[b] = append(q.buckets[b], s)
	}
}

// near-heap primitives (binary min-heap on eless, tracking s.pos).

func (q *calendarQueue) nearPush(s *eslot) {
	s.b = nearHeap
	s.pos = int32(len(q.near))
	q.near = append(q.near, s)
	q.nearUp(len(q.near) - 1)
}

func (q *calendarQueue) nearPopMin() *eslot {
	s := q.near[0]
	last := len(q.near) - 1
	q.near[0] = q.near[last]
	q.near[0].pos = 0
	q.near[last] = nil
	q.near = q.near[:last]
	if last > 0 {
		q.nearDown(0)
	}
	return s
}

func (q *calendarQueue) nearRemove(s *eslot) {
	i := int(s.pos)
	last := len(q.near) - 1
	if i != last {
		q.near[i] = q.near[last]
		q.near[i].pos = int32(i)
	}
	q.near[last] = nil
	q.near = q.near[:last]
	if i < last {
		if !q.nearDown(i) {
			q.nearUp(i)
		}
	}
}

func (q *calendarQueue) nearUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !eless(q.near[i], q.near[parent]) {
			break
		}
		q.near[i], q.near[parent] = q.near[parent], q.near[i]
		q.near[i].pos = int32(i)
		q.near[parent].pos = int32(parent)
		i = parent
	}
}

func (q *calendarQueue) nearDown(i int) bool {
	moved := false
	n := len(q.near)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && eless(q.near[r], q.near[c]) {
			c = r
		}
		if !eless(q.near[c], q.near[i]) {
			break
		}
		q.near[i], q.near[c] = q.near[c], q.near[i]
		q.near[i].pos = int32(i)
		q.near[c].pos = int32(c)
		i = c
		moved = true
	}
	return moved
}
