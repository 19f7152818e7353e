package wq

// Deterministic augmented treap backing the indexed matcher's worker and
// blocked-task indexes (see sched.go and DESIGN.md §9).
//
// Determinism: a treap's shape is a function of its keys and its heap
// priorities. Keys are fully ordered application data and priorities are a
// splitmix64 hash of the key's unique integer component, so the same set of
// insertions always yields the same tree regardless of insertion order, and
// in-order iteration is a pure function of the contents. Nothing here reads
// a random source or iterates a Go map.

// tkey is a treap sort key: two float dimensions and a unique integer
// tie-breaker. Each index documents what it stores in a, b, and c; c must be
// unique within one treap (worker join sequence, node ID, or ready
// sequence), which makes every key distinct and the in-order sequence total.
type tkey struct {
	a, b float64
	c    int64
}

// less orders keys lexicographically by (a, b, c).
func (k tkey) less(o tkey) bool {
	if k.a != o.a {
		return k.a < o.a
	}
	if k.b != o.b {
		return k.b < o.b
	}
	return k.c < o.c
}

// splitmix64 is the SplitMix64 finalizer, used to derive heap priorities
// from key tie-breakers. It is a fixed bijection: no seed, no state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// tnode is one treap entry. Worker indexes set w plus the capacity values
// v1..v3 (free cores, memory, disk) and vi (running attempts); blocked-task
// indexes set be and leave the values zero. Every node carries subtree
// aggregates of the values so searches can prune whole subtrees that cannot
// contain a fitting worker.
type tnode struct {
	key tkey
	pri uint64

	w  *Worker
	be *blockedEntry

	// Capacity values of this node (worker indexes only), and aggregates
	// over the subtree rooted here, including this node. The running
	// counts vi and minVi are int32 so that they share a word and a node
	// fits the 128-byte allocation size class: workers hold one node per
	// index they are in for the whole run.
	v1, v2, v3          float64
	maxV1, maxV2, maxV3 float64
	vi, minVi           int32
	size                int

	left, right *tnode
}

// pull recomputes this node's subtree aggregates from its children.
func (n *tnode) pull() {
	n.size = 1
	n.maxV1, n.maxV2, n.maxV3, n.minVi = n.v1, n.v2, n.v3, n.vi
	for _, c := range [2]*tnode{n.left, n.right} {
		if c == nil {
			continue
		}
		n.size += c.size
		if c.maxV1 > n.maxV1 {
			n.maxV1 = c.maxV1
		}
		if c.maxV2 > n.maxV2 {
			n.maxV2 = c.maxV2
		}
		if c.maxV3 > n.maxV3 {
			n.maxV3 = c.maxV3
		}
		if c.minVi < n.minVi {
			n.minVi = c.minVi
		}
	}
}

// treap is an ordered set of tnodes keyed by tkey.
type treap struct {
	root *tnode
}

// len reports the number of entries.
func (t *treap) len() int {
	if t.root == nil {
		return 0
	}
	return t.root.size
}

// insert adds a node (its key must not already be present). The node's
// priority is derived from its key so reinsertion is reproducible.
func (t *treap) insert(n *tnode) {
	n.left, n.right = nil, nil
	n.pri = splitmix64(uint64(n.key.c) ^ uint64(n.key.c)<<32 ^ 0x5bf03635)
	t.root = tinsert(t.root, n)
}

func tinsert(root, x *tnode) *tnode {
	if root == nil {
		x.pull()
		return x
	}
	if x.key.less(root.key) {
		root.left = tinsert(root.left, x)
		if root.left.pri > root.pri {
			root = rotRight(root)
		}
	} else {
		root.right = tinsert(root.right, x)
		if root.right.pri > root.pri {
			root = rotLeft(root)
		}
	}
	root.pull()
	return root
}

func rotRight(n *tnode) *tnode {
	l := n.left
	n.left = l.right
	l.right = n
	n.pull()
	l.pull()
	return l
}

func rotLeft(n *tnode) *tnode {
	r := n.right
	n.right = r.left
	r.left = n
	n.pull()
	r.pull()
	return r
}

// remove deletes the node with exactly key k and returns it (nil if absent).
func (t *treap) remove(k tkey) *tnode {
	var removed *tnode
	t.root, removed = tremove(t.root, k)
	if removed != nil {
		// Worker nodes outlive their membership (they are reused on
		// re-entry); unlinking keeps them from pinning former neighbours.
		removed.left, removed.right = nil, nil
	}
	return removed
}

// repull recomputes the aggregates on the root path of the node with key k
// after that node's values were rewritten in place. It stops climbing at
// the first node whose aggregates come out unchanged: its ancestors cannot
// move either.
func (t *treap) repull(k tkey) {
	trepull(t.root, k)
}

// trepull reports whether n's aggregates changed.
func trepull(n *tnode, k tkey) bool {
	switch {
	case k.less(n.key):
		if !trepull(n.left, k) {
			return false
		}
	case n.key.less(k):
		if !trepull(n.right, k) {
			return false
		}
	}
	maxV1, maxV2, maxV3, minVi := n.maxV1, n.maxV2, n.maxV3, n.minVi
	n.pull()
	return n.maxV1 != maxV1 || n.maxV2 != maxV2 || n.maxV3 != maxV3 || n.minVi != minVi
}

func tremove(n *tnode, k tkey) (root, removed *tnode) {
	if n == nil {
		return nil, nil
	}
	switch {
	case k.less(n.key):
		n.left, removed = tremove(n.left, k)
	case n.key.less(k):
		n.right, removed = tremove(n.right, k)
	default:
		return tmerge(n.left, n.right), n
	}
	n.pull()
	return n, removed
}

// tmerge joins two treaps where every key in a precedes every key in b.
func tmerge(a, b *tnode) *tnode {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.pri > b.pri {
		a.right = tmerge(a.right, b)
		a.pull()
		return a
	}
	b.left = tmerge(a, b.left)
	b.pull()
	return b
}

// min returns the smallest-keyed node, or nil.
func (t *treap) min() *tnode {
	n := t.root
	if n == nil {
		return nil
	}
	for n.left != nil {
		n = n.left
	}
	return n
}

// findFit returns the smallest-keyed node accepted by ok, pruning any
// subtree rejected by may (a monotone test over the subtree aggregates:
// if may is false no node inside can satisfy ok). visits counts the nodes
// on which ok was evaluated — the "candidates examined" measure.
func (t *treap) findFit(may func(*tnode) bool, ok func(*tnode) bool, visits *int) *tnode {
	return tfind(t.root, may, ok, visits)
}

func tfind(n *tnode, may, ok func(*tnode) bool, visits *int) *tnode {
	if n == nil || !may(n) {
		return nil
	}
	if r := tfind(n.left, may, ok, visits); r != nil {
		return r
	}
	*visits++
	if ok(n) {
		return n
	}
	return tfind(n.right, may, ok, visits)
}

// each visits every node in key order.
func (t *treap) each(fn func(*tnode)) {
	teach(t.root, fn)
}

func teach(n *tnode, fn func(*tnode)) {
	if n == nil {
		return
	}
	teach(n.left, fn)
	fn(n)
	teach(n.right, fn)
}

// firstWhere returns the smallest-keyed node accepted by fn, visiting nodes
// in key order without pruning.
func (t *treap) firstWhere(fn func(*tnode) bool) *tnode {
	return tfirst(t.root, fn)
}

func tfirst(n *tnode, fn func(*tnode) bool) *tnode {
	if n == nil {
		return nil
	}
	if r := tfirst(n.left, fn); r != nil {
		return r
	}
	if fn(n) {
		return n
	}
	return tfirst(n.right, fn)
}
