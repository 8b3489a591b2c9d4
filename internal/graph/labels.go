package graph

// Labels map every vertex of an original graph to its vertex in a
// contracted graph. The solvers that contract repeatedly keep one labels
// slice, compose each round's mapping into it, and lift cuts of the
// contracted graph back to the original vertices through it.

// IdentityLabels returns the labels of the uncontracted graph on n
// vertices: vertex v is its own block.
func IdentityLabels(n int) []int32 {
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i)
	}
	return labels
}

// ComposeLabels applies one contraction to labels in place: a vertex
// labelled l becomes labelled block[l].
func ComposeLabels(labels, block []int32) {
	for i, l := range labels {
		labels[i] = block[l]
	}
}

// LiftBlock returns the side over original vertices made of the vertices
// labelled b.
func LiftBlock(labels []int32, b int32) []bool {
	side := make([]bool, len(labels))
	for v, l := range labels {
		side[v] = l == b
	}
	return side
}

// LiftSide returns the side over original vertices whose contracted
// vertices are on side cur.
func LiftSide(labels []int32, cur []bool) []bool {
	side := make([]bool, len(labels))
	for v, l := range labels {
		side[v] = cur[l]
	}
	return side
}

// LiftSet returns the side over original vertices whose contracted
// vertices, of a graph with nc vertices, are in set.
func LiftSet(labels []int32, nc int, set []int32) []bool {
	cur := make([]bool, nc)
	for _, v := range set {
		cur[v] = true
	}
	return LiftSide(labels, cur)
}
