package topology

import "math/rand"

// NewTorus builds a rows x cols wrapped mesh (torus). Every node is connected
// to its four grid neighbors by a pair of simplex links of the given
// capacity. The paper's evaluation network is an 8x8 torus with 200 Mbps
// links.
//
// Node (r,c) has id r*cols+c.
func NewTorus(rows, cols int, capacity float64) *Graph {
	if rows < 2 || cols < 2 {
		panic("topology: torus requires at least 2x2")
	}
	g := NewGraph(rows * cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			// Add the "east" and "south" duplex pairs once per node;
			// wrap-around included. For a 2-wide dimension the wrap link
			// would duplicate the direct link, so skip it there.
			if cols > 2 || c+1 < cols {
				g.addDuplex(id(r, c), id(r, (c+1)%cols), capacity)
			}
			if rows > 2 || r+1 < rows {
				g.addDuplex(id(r, c), id((r+1)%rows, c), capacity)
			}
		}
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

// NewMesh builds a rows x cols mesh (grid without wrap-around links).
// The paper's second evaluation network is an 8x8 mesh with 300 Mbps links.
func NewMesh(rows, cols int, capacity float64) *Graph {
	if rows < 1 || cols < 1 {
		panic("topology: empty mesh")
	}
	g := NewGraph(rows * cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.addDuplex(id(r, c), id(r, c+1), capacity)
			}
			if r+1 < rows {
				g.addDuplex(id(r, c), id(r+1, c), capacity)
			}
		}
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

// NewRing builds an n-node bidirectional ring.
func NewRing(n int, capacity float64) *Graph {
	if n < 3 {
		panic("topology: ring requires at least 3 nodes")
	}
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		g.addDuplex(NodeID(i), NodeID((i+1)%n), capacity)
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

// NewLine builds an n-node line (path graph). Sparsest connected topology;
// useful for exercising the "no disjoint backup exists" edge cases.
func NewLine(n int, capacity float64) *Graph {
	if n < 2 {
		panic("topology: line requires at least 2 nodes")
	}
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.addDuplex(NodeID(i), NodeID(i+1), capacity)
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

// NewHypercube builds a d-dimensional hypercube (2^d nodes).
func NewHypercube(d int, capacity float64) *Graph {
	if d < 1 || d > 20 {
		panic("topology: hypercube dimension out of range")
	}
	n := 1 << d
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for b := 0; b < d; b++ {
			j := i ^ (1 << b)
			if j > i {
				g.addDuplex(NodeID(i), NodeID(j), capacity)
			}
		}
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

// NewRandom builds a connected random graph: a random spanning tree plus
// extra duplex edges until the average node degree reaches avgDegree.
// Deterministic for a given seed.
func NewRandom(n int, avgDegree float64, capacity float64, seed int64) *Graph {
	if n < 2 {
		panic("topology: random graph requires at least 2 nodes")
	}
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(n)
	// Random spanning tree: connect each node i>0 to a random earlier node,
	// over a random permutation so the tree shape varies.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		j := perm[rng.Intn(i)]
		g.addDuplex(NodeID(perm[i]), NodeID(j), capacity)
	}
	wantEdges := int(avgDegree * float64(n) / 2)
	for tries := 0; g.NumLinks()/2 < wantEdges && tries < 50*n*n; tries++ {
		a := NodeID(rng.Intn(n))
		b := NodeID(rng.Intn(n))
		if a == b || g.LinkBetween(a, b) != NoLink {
			continue
		}
		g.addDuplex(a, b, capacity)
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}
