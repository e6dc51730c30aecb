package main

import (
	"math/rand"
	"strings"
	"testing"
)

// Each check must accept a correct output and reject every corruption of
// it. The fixtures are built by hand, not recorded from the program.

// hexagon is the 6-cycle 0-1-2-3-4-5-0 plus the chord {0,3}.
func hexagon() *refGraph {
	return newRefGraph(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}})
}

func wantReject(t *testing.T, name string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: corrupted output accepted", name)
	}
}

func wantAccept(t *testing.T, name string, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: correct output rejected: %v", name, err)
	}
}

func TestMaxMatchingKnownGraphs(t *testing.T) {
	cycle := func(n int) [][2]int {
		var es [][2]int
		for i := 0; i < n; i++ {
			es = append(es, [2]int{i, (i + 1) % n})
		}
		return es
	}
	petersen := append(cycle(5), [2]int{0, 5}, [2]int{1, 6}, [2]int{2, 7}, [2]int{3, 8}, [2]int{4, 9},
		[2]int{5, 7}, [2]int{7, 9}, [2]int{9, 6}, [2]int{6, 8}, [2]int{8, 5})
	for _, tc := range []struct {
		name  string
		n     int
		edges [][2]int
		want  int
	}{
		{"triangle", 3, cycle(3), 1},
		{"5-cycle", 5, cycle(5), 2},
		{"hexagon", 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}}, 3},
		{"petersen", 10, petersen, 5},
		{"two triangles and a bridge", 6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3}}, 3},
		{"star", 5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}}, 1},
	} {
		if got := newRefGraph(tc.n, tc.edges).maxMatching(); got != tc.want {
			t.Errorf("%s: maximum matching %d, want %d", tc.name, got, tc.want)
		}
	}
}

// bruteMatching finds a maximum matching size by trying every edge subset.
func bruteMatching(n int, edges [][2]int) int {
	best := 0
	for mask := 0; mask < 1<<len(edges); mask++ {
		used := make([]bool, n)
		size, ok := 0, true
		for i, e := range edges {
			if mask&(1<<i) == 0 {
				continue
			}
			if used[e[0]] || used[e[1]] {
				ok = false
				break
			}
			used[e[0]], used[e[1]] = true, true
			size++
		}
		if ok && size > best {
			best = size
		}
	}
	return best
}

func TestMaxMatchingAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(6)
		seen := map[[2]int]bool{}
		var edges [][2]int
		for len(edges) < 12 && len(edges) < n*(n-1)/2 {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if !seen[[2]int{u, v}] && rng.Intn(3) > 0 {
				seen[[2]int{u, v}] = true
				edges = append(edges, [2]int{u, v})
			} else if rng.Intn(4) == 0 {
				break
			}
		}
		if got, want := newRefGraph(n, edges).maxMatching(), bruteMatching(n, edges); got != want {
			t.Fatalf("trial %d (n=%d, edges %v): blossom %d, brute force %d", trial, n, edges, got, want)
		}
	}
}

func TestCheckMatchingRejectsCorruption(t *testing.T) {
	g := hexagon()
	good := func() *result {
		return &result{Family: "matching", N: 6, M: 7, Mate: []int{1, 0, 3, 2, 5, 4}, MatchingSize: 3}
	}
	wantAccept(t, "perfect matching", checkMatching(good(), g, 0.25, 3))

	r := good()
	r.Mate[0] = 2 // 0 claims 2, 2 claims 3
	wantReject(t, "asymmetric mate", checkMatching(r, g, 0.25, 3))
	r = good()
	r.Mate = []int{4, 2, 1, 5, 0, 3} // {0,4} and {3,5} are not edges
	wantReject(t, "pair on a non-edge", checkMatching(r, g, 0.25, 3))
	r = good()
	r.MatchingSize = 2
	wantReject(t, "wrong matching_size", checkMatching(r, g, 0.25, 3))
	r = good()
	r.Mate, r.MatchingSize = []int{1, 0, -1, -1, -1, -1}, 1
	wantReject(t, "below (1-eps) of the maximum", checkMatching(r, g, 0.25, 3))
	r = good()
	r.Mate = r.Mate[:5]
	wantReject(t, "short mate", checkMatching(r, g, 0.25, 3))
	r = good()
	r.M = 6
	wantReject(t, "wrong m", checkMatching(r, g, 0.25, 3))
}

func TestCheckMISRejectsCorruption(t *testing.T) {
	g := hexagon()
	good := func() *result { return &result{Family: "mis", N: 6, M: 7, Set: []int{1, 4}, SetSize: 2} }
	wantAccept(t, "independent set", checkMIS(good(), g))

	r := good()
	r.Set, r.SetSize = []int{0, 1}, 2
	wantReject(t, "adjacent members", checkMIS(r, g))
	r = good()
	r.SetSize = 3
	wantReject(t, "wrong set_size", checkMIS(r, g))
	r = good()
	r.Set, r.SetSize = []int{1, 1}, 2
	wantReject(t, "repeated member", checkMIS(r, g))
	r = good()
	r.Set, r.SetSize = []int{1, 6}, 2
	wantReject(t, "member out of range", checkMIS(r, g))
}

func TestCheckClusteringRejectsCorruption(t *testing.T) {
	g := hexagon()
	// Clusters {0,1,2} (a path, diameter 2) and {3,4,5}; cut {2,3},{5,0},{0,3}.
	good := func() *result {
		return &result{Family: "clustering", N: 6, M: 7, Labels: []int{7, 7, 7, 9, 9, 9},
			CutEdges: 3, CutFraction: 3.0 / 7, MaxDiameter: 2}
	}
	wantAccept(t, "two clusters", checkClustering(good(), g, 0.5))

	r := good()
	r.Labels[4] = -1
	wantReject(t, "vertex without a label", checkClustering(r, g, 0.5))
	r = good()
	r.CutEdges = 2
	wantReject(t, "wrong cut count", checkClustering(r, g, 0.5))
	wantReject(t, "cut above eps", checkClustering(good(), g, 0.4))
	r = good()
	r.MaxDiameter = 1
	wantReject(t, "wrong max_diameter", checkClustering(r, g, 0.5))
	r = good()
	r.Labels = r.Labels[:5]
	wantReject(t, "short labels", checkClustering(r, g, 0.5))
}

// hexWalk is a tree-routing answer on hexagon for the clusters {0,1,2}
// and {3,4,5}: in each the intra-cluster degrees are 1,2,1, so the leaders
// are 1 and 4.
func hexWalk() *result {
	return &result{Family: "walkroute", N: 6, M: 7, Delivered: 6, DeliveredTo: []int{1, 1, 1, 4, 4, 4}}
}

func TestPartitionOfRejectsCorruption(t *testing.T) {
	g := hexagon()
	p, err := partitionOf(hexWalk(), g, 2, 0.5)
	wantAccept(t, "two clusters", err)
	if p.leader[5] != 4 {
		t.Fatalf("leader of 5 is %d, want 4", p.leader[5])
	}

	r := hexWalk()
	r.DeliveredTo = []int{0, 0, 0, 4, 4, 4}
	_, err = partitionOf(r, g, 2, 0.5)
	wantReject(t, "leader that breaks the degree rule", err)
	r = hexWalk()
	r.DeliveredTo[2], r.Delivered, r.Undelivered = -1, 5, 1
	_, err = partitionOf(r, g, 2, 0.5)
	wantReject(t, "undelivered vertex", err)
	r = hexWalk()
	r.DeliveredTo = []int{1, 1, 1, 1, 4, 4}
	_, err = partitionOf(r, g, 2, 0.5)
	wantReject(t, "cluster {0,1,2,3}, whose degree rule elects 0, led by 1", err)
	_, err = partitionOf(hexWalk(), g, 3, 0.5)
	wantReject(t, "wrong cluster count", err)
	_, err = partitionOf(hexWalk(), g, 2, 0.4)
	wantReject(t, "cut above eps", err)
}

func TestCheckWalkrouteRejectsCorruption(t *testing.T) {
	g := hexagon()
	p, err := partitionOf(hexWalk(), g, 2, 0.5)
	wantAccept(t, "partition", err)
	good := func() *result {
		return &result{Family: "walkroute", N: 6, M: 7, Delivered: 5, Undelivered: 1, DeliveredTo: []int{1, 1, -1, 4, 4, 4}}
	}
	wantAccept(t, "one undelivered", checkWalkroute(good(), g, p))

	r := good()
	r.DeliveredTo[0] = 4
	wantReject(t, "wrong leader", checkWalkroute(r, g, p))
	r = good()
	r.Undelivered = 2
	wantReject(t, "delivered+undelivered != n", checkWalkroute(r, g, p))
	r = good()
	r.Delivered, r.Undelivered = 6, 0
	wantReject(t, "delivered count disagrees with delivered_to", checkWalkroute(r, g, p))
}

func TestCheckHitAndSelectionRejectCorruption(t *testing.T) {
	full := &result{Family: "matching", N: 6, M: 7, Mate: []int{1, 0, 3, 2, 5, 4}, MatchingSize: 3}
	body := []byte(`{"family":"matching","epoch":3,"cached":true,"selection":[{"v":2,"value":3},{"v":5,"value":4}],"result":{"n":6}}`)
	env, _, err := decodeEnvelope(body)
	wantAccept(t, "decode", err)
	wantAccept(t, "hit", checkHit(env, 3, []byte(`{"n":6}`)))
	wantAccept(t, "selection", checkSelection(env, full, []int{5, 2, 5}))

	wantReject(t, "different result bytes", checkHit(env, 3, []byte(`{"n":7}`)))
	wantReject(t, "other epoch", checkHit(env, 4, []byte(`{"n":6}`)))
	miss, _, _ := decodeEnvelope([]byte(strings.Replace(string(body), `"cached":true`, `"cached":false`, 1)))
	wantReject(t, "not served from the cache", checkHit(miss, 3, []byte(`{"n":6}`)))
	wantReject(t, "unrequested vertex", checkSelection(env, full, []int{2, 4}))
	bad, _, _ := decodeEnvelope([]byte(strings.Replace(string(body), `"value":4`, `"value":-1`, 1)))
	wantReject(t, "wrong projected value", checkSelection(bad, full, []int{2, 5}))
}

func TestCheckHitBytesRejectsCorruption(t *testing.T) {
	first := `{"family":"mis","epoch":3,"cached":true,"batch_size":1,"took_ms":0.041,"selection":[{"v":2,"value":1}],"result":{"n":6}}`
	var ref hitRef
	var err error
	ref.head, ref.tail, err = splitTook([]byte(first))
	wantAccept(t, "split", err)
	wantAccept(t, "same answer, other took_ms", checkHitBytes([]byte(strings.Replace(first, "0.041", "1.5e-05", 1)), ref))
	for name, corrupt := range map[string][2]string{
		"other epoch":         {`"epoch":3`, `"epoch":4`},
		"not cached":          {`"cached":true`, `"cached":false`},
		"other selection":     {`"value":1`, `"value":0`},
		"other result":        {`{"n":6}`, `{"n":7}`},
		"truncated":           {`"result":{"n":6}}`, `"result":{"n":6`},
		"no took_ms":          {`,"took_ms":0.041`, ``},
		"selection before ms": {`"took_ms":0.041,"selection":[{"v":2,"value":1}]`, `"selection":[{"v":2,"value":1}],"took_ms":0.041`},
	} {
		wantReject(t, name, checkHitBytes([]byte(strings.Replace(first, corrupt[0], corrupt[1], 1)), ref))
	}
}

func TestRefGraphReplayRejectsInapplicableOps(t *testing.T) {
	g := hexagon()
	wantReject(t, "insert existing edge", g.addEdge(0, 1))
	wantReject(t, "insert self-loop", g.addEdge(2, 2))
	wantReject(t, "delete missing edge", g.deleteEdge(1, 3))
	wantAccept(t, "delete", g.deleteEdge(0, 3))
	wantAccept(t, "insert", g.addEdge(1, 4))
	if g.m != 7 || g.adj[0][3] || !g.adj[4][1] {
		t.Fatalf("after deleting {0,3} and inserting {1,4}: m=%d, {0,3} present %t, {1,4} present %t",
			g.m, g.adj[0][3], g.adj[4][1])
	}
}
