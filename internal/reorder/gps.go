package reorder

import (
	"sort"

	"sparseorder/internal/graph"
	"sparseorder/internal/sparse"
)

// GibbsPooleStockmeyer computes a bandwidth/profile-reducing ordering in
// the manner of Gibbs, Poole and Stockmeyer (paper §2.1.1, ref. [12]):
// per connected component it finds the two endpoints of a pseudo-diameter,
// combines their opposing level structures into one of minimal width —
// vertices on which both structures agree keep that level, and each
// remaining connected cluster is assigned wholesale to whichever of its
// two candidate levelings grows the maximum level width least — and then
// numbers the levels consecutively with vertices sorted by degree. The
// final ordering is reversed, like RCM, which is the variant that performs
// better in practice. Included as an extension: the study evaluates RCM
// but cites GPS as the other classical bandwidth reducer.
func GibbsPooleStockmeyer(g *graph.Graph) sparse.Perm {
	n := g.N
	perm := make(sparse.Perm, 0, n)
	seen := make([]bool, n)
	// One level scratch serves every component: each traversal's levels
	// are cleared after use, keeping the work per component proportional
	// to its size.
	scratch := graph.NewLevelScratch(n)

	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		u, ru := graph.PseudoPeripheral(g, s, scratch)
		// Opposite endpoint: minimum-degree vertex of the deepest level.
		last := ru.Levels[len(ru.Levels)-1]
		v := int(last[0])
		for _, w := range last {
			if g.Degree(int(w)) < g.Degree(v) {
				v = int(w)
			}
		}
		lu := make([]int32, 0, len(ru.Order))
		lu = append(lu, ru.Order...)
		levelU := make(map[int32]int32, len(lu))
		for _, w := range lu {
			levelU[w] = ru.Level[w]
		}
		h := ru.Depth()
		ru.Clear()
		rv := graph.BFS(g, v, scratch)

		// Combine: level(w) = lu(w) when lu(w) == h - lv(w).
		level := make(map[int32]int32, len(lu))
		var unassigned []int32
		for _, w := range lu {
			iu := levelU[w]
			iv := int32(h) - rv.Level[w]
			if iu == iv {
				level[w] = iu
			} else {
				unassigned = append(unassigned, w)
			}
		}
		width := make([]int, h+1)
		for _, l := range level {
			width[l]++
		}

		// Cluster the unassigned vertices and place each cluster by the
		// leveling that keeps the maximum width smallest; larger clusters
		// are placed first, as in the original algorithm.
		clusters := clustersOf(g, unassigned)
		sort.SliceStable(clusters, func(a, b int) bool { return len(clusters[a]) > len(clusters[b]) })
		for _, cl := range clusters {
			bestU, bestV := 0, 0
			addU := make(map[int32]int)
			addV := make(map[int32]int)
			for _, w := range cl {
				addU[levelU[w]]++
				addV[int32(h)-rv.Level[w]]++
			}
			for l, c := range addU {
				if t := width[l] + c; t > bestU {
					bestU = t
				}
			}
			for l, c := range addV {
				if t := width[l] + c; t > bestV {
					bestV = t
				}
			}
			useU := bestU <= bestV
			for _, w := range cl {
				l := levelU[w]
				if !useU {
					l = int32(h) - rv.Level[w]
				}
				level[w] = l
				width[l]++
			}
		}

		// Number level by level, each level sorted by ascending degree and
		// original index for determinism.
		byLevel := make([][]int32, h+1)
		for _, w := range lu {
			byLevel[level[w]] = append(byLevel[level[w]], w)
		}
		for _, lv := range byLevel {
			sort.Slice(lv, func(a, b int) bool {
				da, db := g.Degree(int(lv[a])), g.Degree(int(lv[b]))
				if da != db {
					return da < db
				}
				return lv[a] < lv[b]
			})
			for _, w := range lv {
				perm = append(perm, int(w))
				seen[w] = true
			}
		}
		rv.Clear()
		_ = u
	}

	// Reverse, as with RCM.
	for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// clustersOf returns the connected components of the subgraph induced on
// the given vertex subset.
func clustersOf(g *graph.Graph, verts []int32) [][]int32 {
	in := make(map[int32]bool, len(verts))
	for _, v := range verts {
		in[v] = true
	}
	visited := make(map[int32]bool, len(verts))
	var out [][]int32
	for _, s := range verts {
		if visited[s] {
			continue
		}
		comp := []int32{s}
		visited[s] = true
		for head := 0; head < len(comp); head++ {
			for _, u := range g.Neighbors(int(comp[head])) {
				if in[u] && !visited[u] {
					visited[u] = true
					comp = append(comp, u)
				}
			}
		}
		out = append(out, comp)
	}
	return out
}
