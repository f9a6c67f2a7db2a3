package kdtree

// Leaves returns the tree's leaf count.
func (t *Tree[T]) Leaves() int {
	n := 0
	for i := range t.nodes {
		if t.nodes[i].left < 0 {
			n++
		}
	}
	return n
}

// Reached returns how many leaf groups and image runs the last
// QueryRadiusImagesBlock call into blk collected in its first pass.
func Reached(blk *Block) (groups, runs int) {
	l, _ := blk.Scratch.(*leafList)
	if l == nil {
		return 0, 0
	}
	return len(l.groups), len(l.runs)
}
