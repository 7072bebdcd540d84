package collector

// Hooks for the tests of package collector_test, which feed collectors from
// the generator fabrics of package experiment (an import this package
// cannot make: experiment imports it).

// CheckWalksMatchHostTrees is checkWalksMatchHostTrees.
func CheckWalksMatchHostTrees(t *Topology) (singles int, err error) {
	return checkWalksMatchHostTrees(t)
}

// StoredTrees returns how many trees t's structure holds, and how many
// distinct walk roots t's hosts have.
func StoredTrees(t *Topology) (trees, roots int) {
	for i := range t.trees.s {
		if t.trees.s[i].Load() != nil {
			trees++
		}
	}
	seen := make(map[NodeIdx]bool)
	for _, i := range t.hostIdx {
		if i >= 0 {
			seen[t.root.s[i]] = true
		}
	}
	return trees, len(seen)
}

// BuildRootTree builds, afresh and without storing it, the tree that walks
// toward host follow: the tree of host's walk root.
func BuildRootTree(t *Topology, host string) {
	buildDestTree(t.structure, t.root.s[t.nodeIndex[host]])
}
