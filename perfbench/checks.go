package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// The checks in this file recompute every property they assert from the
// benchmark's own copy of the graph; none of them calls into the program
// or compares against a stored copy of an earlier output.

// refGraph is the benchmark's own model of the served graph: adjacency
// sets it updates itself as mutations are replayed.
type refGraph struct {
	adj []map[int]bool
	m   int
}

func newRefGraph(n int, edges [][2]int) *refGraph {
	r := &refGraph{adj: make([]map[int]bool, n)}
	for v := range r.adj {
		r.adj[v] = map[int]bool{}
	}
	for _, e := range edges {
		if err := r.addEdge(e[0], e[1]); err != nil {
			panic(err) // the generators never emit a duplicate or a loop
		}
	}
	return r
}

func (r *refGraph) n() int { return len(r.adj) }

func (r *refGraph) clone() *refGraph {
	c := &refGraph{adj: make([]map[int]bool, len(r.adj)), m: r.m}
	for v, nb := range r.adj {
		c.adj[v] = make(map[int]bool, len(nb))
		for u := range nb {
			c.adj[v][u] = true
		}
	}
	return c
}

func (r *refGraph) inRange(v int) bool { return v >= 0 && v < len(r.adj) }

func (r *refGraph) addEdge(u, v int) error {
	if !r.inRange(u) || !r.inRange(v) || u == v || r.adj[u][v] {
		return fmt.Errorf("insert {%d,%d} does not apply", u, v)
	}
	r.adj[u][v], r.adj[v][u] = true, true
	r.m++
	return nil
}

func (r *refGraph) deleteEdge(u, v int) error {
	if !r.inRange(u) || !r.inRange(v) || !r.adj[u][v] {
		return fmt.Errorf("delete {%d,%d} does not apply", u, v)
	}
	delete(r.adj[u], v)
	delete(r.adj[v], u)
	r.m--
	return nil
}

// maxMatching returns the size of a maximum matching of r, by Edmonds'
// blossom algorithm.
func (r *refGraph) maxMatching() int {
	n := r.n()
	adj := make([][]int, n)
	for v, nb := range r.adj {
		for u := range nb {
			adj[v] = append(adj[v], u)
		}
	}
	match, parent, base := make([]int, n), make([]int, n), make([]int, n)
	used, blossom, onPath := make([]bool, n), make([]bool, n), make([]bool, n)
	for i := range match {
		match[i] = -1
	}
	lca := func(a, b int) int {
		for i := range onPath {
			onPath[i] = false
		}
		for {
			a = base[a]
			onPath[a] = true
			if match[a] == -1 {
				break
			}
			a = parent[match[a]]
		}
		for {
			b = base[b]
			if onPath[b] {
				return b
			}
			b = parent[match[b]]
		}
	}
	markPath := func(v, b, child int) {
		for base[v] != b {
			blossom[base[v]], blossom[base[match[v]]] = true, true
			parent[v] = child
			child = match[v]
			v = parent[match[v]]
		}
	}
	findPath := func(root int) int {
		for i := 0; i < n; i++ {
			used[i], parent[i], base[i] = false, -1, i
		}
		used[root] = true
		queue := []int{root}
		for qh := 0; qh < len(queue); qh++ {
			v := queue[qh]
			for _, to := range adj[v] {
				if base[v] == base[to] || match[v] == to {
					continue
				}
				if to == root || (match[to] != -1 && parent[match[to]] != -1) {
					cur := lca(v, to)
					for i := range blossom {
						blossom[i] = false
					}
					markPath(v, cur, to)
					markPath(to, cur, v)
					for i := 0; i < n; i++ {
						if blossom[base[i]] {
							base[i] = cur
							if !used[i] {
								used[i] = true
								queue = append(queue, i)
							}
						}
					}
				} else if parent[to] == -1 {
					parent[to] = v
					if match[to] == -1 {
						return to
					}
					used[match[to]] = true
					queue = append(queue, match[to])
				}
			}
		}
		return -1
	}
	size := 0
	for v := 0; v < n; v++ {
		if match[v] != -1 {
			continue
		}
		for u := findPath(v); u != -1; {
			pv := parent[u]
			next := match[pv]
			match[u], match[pv] = pv, u
			u = next
		}
	}
	for v := 0; v < n; v++ {
		if match[v] > v {
			size++
		}
	}
	return size
}

// result is the part of a /query result the checks read, decoded from the
// wire independently of the program's own types.
type result struct {
	Family       string  `json:"family"`
	N            int     `json:"n"`
	M            int     `json:"m"`
	Mate         []int   `json:"mate"`
	MatchingSize int     `json:"matching_size"`
	Set          []int   `json:"set"`
	SetSize      int     `json:"set_size"`
	Labels       []int   `json:"labels"`
	CutEdges     int     `json:"cut_edges"`
	CutFraction  float64 `json:"cut_fraction"`
	MaxDiameter  int     `json:"max_diameter"`
	Delivered    int     `json:"delivered"`
	Undelivered  int     `json:"undelivered"`
	DeliveredTo  []int   `json:"delivered_to"`
	Accounting   struct {
		Rounds   int   `json:"rounds"`
		Messages int64 `json:"messages"`
	} `json:"accounting"`
}

// envelope is a /query response.
type envelope struct {
	Epoch     int64 `json:"epoch"`
	Cached    bool  `json:"cached"`
	Selection []struct {
		V     int   `json:"v"`
		Value int64 `json:"value"`
	} `json:"selection"`
	Result json.RawMessage `json:"result"`
}

func decodeEnvelope(body []byte) (*envelope, *result, error) {
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, nil, fmt.Errorf("decoding response: %w", err)
	}
	var res result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		return nil, nil, fmt.Errorf("decoding result: %w", err)
	}
	return &env, &res, nil
}

// partition is a decomposition as the benchmark observes it: every vertex
// mapped to its cluster's leader.
type partition struct {
	leader []int
}

// checkShape checks the fields every result carries.
func checkShape(res *result, family string, g *refGraph) error {
	if res.Family != family {
		return fmt.Errorf("family %q, want %q", res.Family, family)
	}
	if res.N != g.n() || res.M != g.m {
		return fmt.Errorf("result has n=%d m=%d, the graph has n=%d m=%d", res.N, res.M, g.n(), g.m)
	}
	return nil
}

// checkMatching: mate is a symmetric matching on edges of g, its reported
// size is its size, and the size is at least (1-eps) times a maximum
// matching's.
func checkMatching(res *result, g *refGraph, eps float64, maximum int) error {
	if err := checkShape(res, "matching", g); err != nil {
		return err
	}
	if len(res.Mate) != g.n() {
		return fmt.Errorf("mate has %d entries for %d vertices", len(res.Mate), g.n())
	}
	pairs := 0
	for v, u := range res.Mate {
		if u == -1 {
			continue
		}
		if !g.inRange(u) || u == v || res.Mate[u] != v {
			return fmt.Errorf("mate[%d]=%d is not symmetric", v, u)
		}
		if !g.adj[v][u] {
			return fmt.Errorf("matched pair {%d,%d} is not an edge", v, u)
		}
		if u > v {
			pairs++
		}
	}
	if pairs != res.MatchingSize {
		return fmt.Errorf("matching_size %d, mate has %d pairs", res.MatchingSize, pairs)
	}
	if float64(pairs) < (1-eps)*float64(maximum) {
		return fmt.Errorf("matching of size %d is below (1-%g) x maximum %d", pairs, eps, maximum)
	}
	return nil
}

// checkMIS: set is an independent set of distinct vertices and set_size
// is its size.
func checkMIS(res *result, g *refGraph) error {
	if err := checkShape(res, "mis", g); err != nil {
		return err
	}
	if res.SetSize != len(res.Set) {
		return fmt.Errorf("set_size %d, set has %d members", res.SetSize, len(res.Set))
	}
	in := make(map[int]bool, len(res.Set))
	for _, v := range res.Set {
		if !g.inRange(v) || in[v] {
			return fmt.Errorf("set member %d is out of range or repeated", v)
		}
		in[v] = true
	}
	for v := range in {
		for u := range g.adj[v] {
			if in[u] {
				return fmt.Errorf("set members %d and %d are adjacent", v, u)
			}
		}
	}
	return nil
}

// checkClustering: labels cover every vertex, the cut fraction recomputed
// matches the reported one and is at most eps, and max_diameter matches
// the largest diameter of a cluster's induced subgraph, by BFS.
func checkClustering(res *result, g *refGraph, eps float64) error {
	if err := checkShape(res, "clustering", g); err != nil {
		return err
	}
	if len(res.Labels) != g.n() {
		return fmt.Errorf("labels has %d entries for %d vertices", len(res.Labels), g.n())
	}
	members := map[int][]int{}
	for v, l := range res.Labels {
		if l < 0 {
			return fmt.Errorf("vertex %d has no label", v)
		}
		members[l] = append(members[l], v)
	}
	cut := 0
	for v, nb := range g.adj {
		for u := range nb {
			if u > v && res.Labels[u] != res.Labels[v] {
				cut++
			}
		}
	}
	frac := 0.0
	if g.m > 0 {
		frac = float64(cut) / float64(g.m)
	}
	if cut != res.CutEdges || math.Abs(frac-res.CutFraction) > 1e-9 {
		return fmt.Errorf("reported %d cut edges (%.6f), recomputed %d (%.6f)", res.CutEdges, res.CutFraction, cut, frac)
	}
	if frac > eps {
		return fmt.Errorf("cut fraction %.4f exceeds eps %g", frac, eps)
	}
	diam := 0
	dist := make([]int, g.n())
	for i := range dist {
		dist[i] = -1
	}
	for l, vs := range members {
		for _, s := range vs {
			if d := eccentricity(g, res.Labels, l, s, dist); d > diam {
				diam = d
			}
		}
	}
	if diam != res.MaxDiameter {
		return fmt.Errorf("max_diameter %d, recomputed %d", res.MaxDiameter, diam)
	}
	return nil
}

// eccentricity is the largest finite BFS distance from s inside the
// subgraph induced by label l. dist must be all -1; it is restored.
func eccentricity(g *refGraph, labels []int, l, s int, dist []int) int {
	dist[s] = 0
	queue := []int{s}
	ecc := 0
	for qh := 0; qh < len(queue); qh++ {
		v := queue[qh]
		for u := range g.adj[v] {
			if labels[u] == l && dist[u] < 0 {
				dist[u] = dist[v] + 1
				ecc = dist[u]
				queue = append(queue, u)
			}
		}
	}
	for _, v := range queue {
		dist[v] = -1
	}
	return ecc
}

// checkWalkroute: delivered + undelivered = n, delivered counts the
// vertices with a leader, and every leader reached is the leader of the
// vertex's cluster.
func checkWalkroute(res *result, g *refGraph, p *partition) error {
	if err := checkShape(res, "walkroute", g); err != nil {
		return err
	}
	if res.Delivered+res.Undelivered != g.n() {
		return fmt.Errorf("delivered %d + undelivered %d != n %d", res.Delivered, res.Undelivered, g.n())
	}
	if len(res.DeliveredTo) != g.n() {
		return fmt.Errorf("delivered_to has %d entries for %d vertices", len(res.DeliveredTo), g.n())
	}
	got := 0
	for v, l := range res.DeliveredTo {
		if l == -1 {
			continue
		}
		got++
		if l != p.leader[v] {
			return fmt.Errorf("vertex %d reached %d, its cluster's leader is %d", v, l, p.leader[v])
		}
	}
	if got != res.Delivered {
		return fmt.Errorf("delivered %d, delivered_to has %d leaders", res.Delivered, got)
	}
	return nil
}

// checkSelection checks a projected answer against the full result it was
// projected from: one entry per distinct requested vertex, ascending, each
// holding that vertex's value in full.
func checkSelection(env *envelope, full *result, vertices []int) error {
	want := map[int]bool{}
	for _, v := range vertices {
		want[v] = true
	}
	if len(env.Selection) != len(want) {
		return fmt.Errorf("selection has %d entries for %d vertices", len(env.Selection), len(want))
	}
	var inSet map[int]bool
	if full.Family == "mis" {
		inSet = map[int]bool{}
		for _, v := range full.Set {
			inSet[v] = true
		}
	}
	prev := -1
	for _, a := range env.Selection {
		if !want[a.V] || a.V <= prev {
			return fmt.Errorf("selection vertex %d unrequested or out of order", a.V)
		}
		prev = a.V
		var val int64
		switch full.Family {
		case "matching":
			val = int64(full.Mate[a.V])
		case "mis":
			if inSet[a.V] {
				val = 1
			}
		case "clustering":
			val = int64(full.Labels[a.V])
		case "walkroute":
			val = int64(full.DeliveredTo[a.V])
		}
		if a.Value != val {
			return fmt.Errorf("selection of vertex %d is %d, the full result has %d", a.V, a.Value, val)
		}
	}
	return nil
}

// checkCached: an answer is marked cached and served from the expected
// epoch.
func checkCached(env *envelope, epoch int64) error {
	if !env.Cached {
		return fmt.Errorf("repeated key not served from the cache")
	}
	if env.Epoch != epoch {
		return fmt.Errorf("hit from epoch %d, want %d", env.Epoch, epoch)
	}
	return nil
}

// checkHit: a cache hit is marked cached, served from the expected epoch,
// and its result is byte-identical to the one first served for its key.
func checkHit(env *envelope, epoch int64, want []byte) error {
	if err := checkCached(env, epoch); err != nil {
		return err
	}
	if !bytes.Equal(env.Result, want) {
		return fmt.Errorf("hit result differs from the first result for its key")
	}
	return nil
}

// hitRef is the first answer served from the cache for one key, split
// around its took_ms value: the one field in which two hits of the same
// key differ.
type hitRef struct{ head, tail []byte }

const tookField = `,"took_ms":`

// splitTook splits an answer into the bytes before its took_ms field
// (family, epoch, cached, batch_size) and those after its value
// (selection, result).
func splitTook(body []byte) (head, tail []byte, err error) {
	i := bytes.Index(body, []byte(tookField))
	if i < 0 {
		return nil, nil, fmt.Errorf("answer has no took_ms field")
	}
	rest := body[i+len(tookField):]
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return nil, nil, fmt.Errorf("answer ends inside took_ms")
	}
	return body[:i], rest[j:], nil
}

// checkHitBytes checks a cache hit against its key's reference answer,
// which was decoded and checked in full: but for took_ms the two are
// byte-identical, so the hit is marked cached, comes from the reference's
// epoch and carries the same selection and result. Nothing is decoded.
func checkHitBytes(body []byte, ref hitRef) error {
	head, tail, err := splitTook(body)
	if err != nil {
		return err
	}
	if !bytes.Equal(head, ref.head) {
		return fmt.Errorf("hit differs from its key's first hit in family, epoch, cached or batch_size")
	}
	if !bytes.Equal(tail, ref.tail) {
		return fmt.Errorf("hit differs from its key's first hit in selection or result")
	}
	return nil
}

// partitionOf reads the decomposition off a deterministic walkroute result
// (tree routing, which delivers every vertex to its cluster's leader) and
// checks it: every vertex is delivered, every leader leads itself, the
// leader of each cluster is its member of largest intra-cluster degree
// (lowest ID on ties), the cluster count matches, and the cut fraction,
// recomputed, is at most eps.
func partitionOf(res *result, g *refGraph, clusters int, eps float64) (*partition, error) {
	if err := checkShape(res, "walkroute", g); err != nil {
		return nil, err
	}
	if res.Undelivered != 0 || res.Delivered != g.n() || len(res.DeliveredTo) != g.n() {
		return nil, fmt.Errorf("tree routing left %d of %d vertices undelivered", res.Undelivered, g.n())
	}
	leader := res.DeliveredTo
	best := map[int]int{} // leader -> member of largest intra-cluster degree
	inDeg := make([]int, g.n())
	cut := 0
	for v, nb := range g.adj {
		l := leader[v]
		if !g.inRange(l) || leader[l] != l {
			return nil, fmt.Errorf("vertex %d maps to %d, which is not a leader of itself", v, l)
		}
		for u := range nb {
			if leader[u] == l {
				inDeg[v]++
			} else if u > v {
				cut++
			}
		}
	}
	for v, l := range leader {
		if b, ok := best[l]; !ok || inDeg[v] > inDeg[b] || (inDeg[v] == inDeg[b] && v < b) {
			best[l] = v
		}
	}
	for l, b := range best {
		if b != l {
			return nil, fmt.Errorf("cluster led by %d: the leader rule elects %d", l, b)
		}
	}
	if clusters >= 0 && len(best) != clusters {
		return nil, fmt.Errorf("%d clusters reported, %d observed", clusters, len(best))
	}
	if g.m > 0 && float64(cut)/float64(g.m) > eps {
		return nil, fmt.Errorf("decomposition cuts %d of %d edges, above eps %g", cut, g.m, eps)
	}
	return &partition{leader: append([]int(nil), leader...)}, nil
}

// checkFamily dispatches a full result to its family's check.
func checkFamily(res *result, g *refGraph, p *partition, eps float64, maximum int) error {
	switch res.Family {
	case "matching":
		return checkMatching(res, g, eps, maximum)
	case "mis":
		return checkMIS(res, g)
	case "clustering":
		return checkClustering(res, g, eps)
	case "walkroute":
		return checkWalkroute(res, g, p)
	}
	return fmt.Errorf("unknown family %q", res.Family)
}
