package btreeidx

// Len returns the number of keys stored, counted over every node.
func (t *Tree) Len() int { return countKeys(t.root) }

func countKeys(n *node) int {
	c := len(n.keys)
	for _, ch := range n.children {
		c += countKeys(ch)
	}
	return c
}

// Height returns the tree height (1 for a lone leaf).
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf(); n = n.children[0] {
		h++
	}
	return h
}
