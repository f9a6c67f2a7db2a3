package kdtree

// Block is the output of one block-granular neighbor query
// (QueryRadiusImagesBlock on the k-d tree and on the grid finder): for a
// batch of query centers, the concatenated per-center neighbor id lists.
// Each center's list has exactly the content and order its own
// QueryRadiusImages call would produce (TestBlockQueryMatchesPerCenter and
// the engine's bitwise tests pin it); the block entry point only amortizes
// the traversal. Finders fill it center by center: append the center's ids
// to IDs, then Seal.
//
// The struct doubles as reusable scratch: all slices grow amortized and are
// reused across queries, so a steady-state block query performs no
// allocations. A Block is owned by a single worker and is not safe for
// concurrent use.
type Block struct {
	// IDs holds the neighbor ids of all centers, grouped by center: center
	// c's neighbors are IDs[Offs[c]:Offs[c+1]], in the center's individual
	// query order.
	IDs []int32
	// Offs has len(centers)+1 entries once the query completes.
	Offs []int32
	// Scratch belongs to the finder that last filled the block (the k-d
	// tree keeps its reached-leaf list here); callers leave it alone.
	Scratch any
}

// Reset prepares the block for a query over n centers: results are cleared,
// capacity is retained.
func (b *Block) Reset(n int) {
	b.IDs = b.IDs[:0]
	if cap(b.Offs) < n+1 {
		b.Offs = make([]int32, 1, n+1)
	} else {
		b.Offs = b.Offs[:1]
	}
	b.Offs[0] = 0
}

// Seal ends the current center's id run.
func (b *Block) Seal() {
	b.Offs = append(b.Offs, int32(len(b.IDs)))
}

// List returns center c's neighbor ids.
func (b *Block) List(c int) []int32 {
	return b.IDs[b.Offs[c]:b.Offs[c+1]]
}

// MaxLen returns the length of the longest neighbor list.
func (b *Block) MaxLen() int {
	m := int32(0)
	for c := 1; c < len(b.Offs); c++ {
		m = max(m, b.Offs[c]-b.Offs[c-1])
	}
	return int(m)
}
