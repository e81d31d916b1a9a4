// Package btreeidx implements an in-memory B-tree index over a virtual
// address space — the substrate behind the paper's Btree workload
// (Table 3: "In-Memory Index Lookup", the mitosis-project BTree benchmark:
// populate with keys, then hammer it with random lookups).
//
// The tree is a real B-tree: inserts split nodes, lookups descend with
// binary search. Every node has a virtual address, and traversals report
// the key slots they probe through a touch callback, producing the
// pointer-chasing, top-heavy access pattern of index lookups: root and
// upper levels are extremely hot, leaves are cold and uniformly touched.
package btreeidx

import "fmt"

// Touch reports one logical memory access at a virtual address.
type Touch func(addr uint64, write bool)

// Config sizes a Tree.
type Config struct {
	// Base is the first virtual address used for nodes.
	Base uint64
	// Order is the maximum number of keys per node (≥ 3).
	Order int
	// NodeBytes is the virtual size of one node; nodes are laid out
	// consecutively from Base in allocation order. 0 derives it from the
	// order (16 bytes per key slot, covering key + child pointer).
	NodeBytes uint64
}

// Tree is the B-tree. It is not safe for concurrent use.
type Tree struct {
	cfg  Config
	root *node
	next uint64 // next node address
}

type node struct {
	addr     uint64
	keys     []uint64
	children []*node // nil for leaves
}

func (n *node) leaf() bool { return n.children == nil }

// New returns an empty tree. It panics if the order is below 3.
func New(cfg Config) *Tree {
	if cfg.Order < 3 {
		panic(fmt.Sprintf("btreeidx: order %d below 3", cfg.Order))
	}
	if cfg.NodeBytes == 0 {
		cfg.NodeBytes = uint64(cfg.Order) * 16
	}
	t := &Tree{cfg: cfg, next: cfg.Base}
	t.root = t.newNode(true)
	return t
}

func (t *Tree) newNode(leaf bool) *node {
	n := &node{addr: t.next}
	t.next += t.cfg.NodeBytes
	if !leaf {
		n.children = make([]*node, 0, t.cfg.Order+1)
	}
	return n
}

// Footprint returns the virtual bytes spanned by allocated nodes.
func (t *Tree) Footprint() int64 { return int64(t.next - t.cfg.Base) }

// keyAddr returns the virtual address of key slot i in node n.
func (t *Tree) keyAddr(n *node, i int) uint64 {
	return n.addr + uint64(i)*8
}

// search binary-searches key within n's keys, reporting the probed
// slots, and returns (index, found): index is the child to descend into
// (or insertion point).
func (t *Tree) search(n *node, key uint64, touch Touch) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if touch != nil {
			touch(t.keyAddr(n, mid), false)
		}
		switch {
		case n.keys[mid] == key:
			return mid, true
		case n.keys[mid] < key:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

// Lookup probes for key, reporting touches, and returns whether it is
// present.
func (t *Tree) Lookup(key uint64, touch Touch) bool {
	n := t.root
	for {
		i, found := t.search(n, key, touch)
		if found {
			return true
		}
		if n.leaf() {
			return false
		}
		n = n.children[i]
	}
}

// Insert adds key (duplicates are ignored), reporting the accesses of
// the descent and any splits. It returns true if the key was new.
func (t *Tree) Insert(key uint64, touch Touch) bool {
	if len(t.root.keys) == t.cfg.Order {
		// Preemptive root split keeps the insert path single-pass.
		old := t.root
		t.root = t.newNode(false)
		t.root.children = append(t.root.children, old)
		t.splitChild(t.root, 0, touch)
	}
	return t.insertNonFull(t.root, key, touch)
}

func (t *Tree) insertNonFull(n *node, key uint64, touch Touch) bool {
	for {
		i, found := t.search(n, key, touch)
		if found {
			return false
		}
		if n.leaf() {
			n.keys = append(n.keys, 0)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = key
			if touch != nil {
				touch(t.keyAddr(n, i), true)
			}
			return true
		}
		child := n.children[i]
		if len(child.keys) == t.cfg.Order {
			t.splitChild(n, i, touch)
			// The separator moved up; re-route around it.
			if key == n.keys[i] {
				return false
			}
			if key > n.keys[i] {
				i++
			}
			child = n.children[i]
		}
		n = child
	}
}

// splitChild splits parent.children[i] (which must be full) into two
// nodes, hoisting the median key into parent.
func (t *Tree) splitChild(parent *node, i int, touch Touch) {
	child := parent.children[i]
	mid := len(child.keys) / 2
	median := child.keys[mid]

	right := t.newNode(child.leaf())
	right.keys = append(right.keys, child.keys[mid+1:]...)
	if !child.leaf() {
		right.children = append(right.children, child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	child.keys = child.keys[:mid]

	parent.keys = append(parent.keys, 0)
	copy(parent.keys[i+1:], parent.keys[i:])
	parent.keys[i] = median
	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
	if touch != nil {
		// A split rewrites both halves and the parent slot.
		touch(t.keyAddr(parent, i), true)
		touch(child.addr, true)
		touch(right.addr, true)
	}
}

// check verifies B-tree invariants; used by tests.
func (t *Tree) check() error {
	var walk func(n *node, lo, hi uint64, depth int) (int, error)
	walk = func(n *node, lo, hi uint64, depth int) (int, error) {
		for i := 0; i < len(n.keys); i++ {
			k := n.keys[i]
			if k < lo || k > hi {
				return 0, fmt.Errorf("key %d outside [%d,%d]", k, lo, hi)
			}
			if i > 0 && n.keys[i-1] >= k {
				return 0, fmt.Errorf("unsorted keys at depth %d", depth)
			}
		}
		if len(n.keys) > t.cfg.Order {
			return 0, fmt.Errorf("node overfull: %d keys", len(n.keys))
		}
		if n.leaf() {
			return 1, nil
		}
		if len(n.children) != len(n.keys)+1 {
			return 0, fmt.Errorf("children %d != keys+1 %d",
				len(n.children), len(n.keys)+1)
		}
		want := -1
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[i-1] + 1
			}
			if i < len(n.keys) {
				chi = n.keys[i] - 1
			}
			h, err := walk(c, clo, chi, depth+1)
			if err != nil {
				return 0, err
			}
			if want == -1 {
				want = h
			} else if h != want {
				return 0, fmt.Errorf("uneven leaf depth")
			}
		}
		return want + 1, nil
	}
	_, err := walk(t.root, 0, ^uint64(0), 0)
	return err
}
