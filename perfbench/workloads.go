package main

import (
	"fmt"
	"math/rand/v2"

	"dyntc"
)

// The three workloads: how each builds its trees from the seed and how
// each client generates its op stream. Generators are deterministic given
// the seed, and every expected answer comes from the mirror.

var workloadNames = []string{"churn", "labels", "forest"}

const (
	labelsBatch = 64 // ops per labels /batch request
	forestBatch = 16 // set-leaf ops per forest write request
	roundReqs   = 16 // requests per client per round
)

// sizes fixes the size of each input. short shrinks everything for the
// benchmark's own tests.
type sizes struct {
	churnLeaves, churnSpine int
	labelsLeaves            int // both halves together
	forestTrees, forestLeaf int // trees, leaves per tree
	warmRounds              int // untimed rounds per client before timing
	exactRounds             int // churn: rounds the exact PRAM counts cover
	tracedReqs              int // requests of the stream the traced pass runs
	probe                   int // calls per probe kind in the traced pass
}

func sizesFor(short bool) sizes {
	if short {
		return sizes{
			churnLeaves: 1024, churnSpine: 64, labelsLeaves: 4096,
			forestTrees: 32, forestLeaf: 64, warmRounds: 2, exactRounds: 4, tracedReqs: 256, probe: 64,
		}
	}
	return sizes{
		churnLeaves: 16384, churnSpine: 1024, labelsLeaves: 65536,
		forestTrees: 256, forestLeaf: 256, warmRounds: 64, exactRounds: 2048, tracedReqs: 4096, probe: 1024,
	}
}

// reqKind is the kind of one client request; each maps to one HTTP call,
// one Engine call and one Expr call.
type reqKind uint8

const (
	rqGrow reqKind = iota
	rqCollapse
	rqValue
	rqSetBatch
	rqValueBatch
	rqQuery
	numReqKinds
)

var reqKindNames = [numReqKinds]string{"grow", "collapse", "value", "set_batch", "value_batch", "query"}

// wop is one tree op inside a request. In a set batch, set == kLeaf marks
// a set-leaf (value v1) and an operation kind marks a set-op.
type wop struct {
	node   int32
	set    opKind // grow / set-op: the operation
	v1, v2 int64  // set-leaf / collapse value; grow left and right values
}

// request is one client request with the answers the mirror expects:
// the two new node IDs of a grow, the values of reads, the sum of a
// query.
type request struct {
	kind   reqKind
	client int
	tree   int // index into world.trees; the tree's ID is tree+1
	ops    []wop
	want   []int64
}

func (r *request) reset(k reqKind, tree int) {
	r.kind, r.tree = k, tree
	r.ops, r.want = r.ops[:0], r.want[:0]
}

// nOps counts tree ops: a batch counts each op, a cross-tree query one.
func (r *request) nOps() int {
	if r.kind == rqQuery {
		return 1
	}
	return len(r.ops)
}

func (r *request) mutating() bool {
	return r.kind == rqGrow || r.kind == rqCollapse || r.kind == rqSetBatch
}

func (r *request) clone() request {
	c := *r
	c.ops = append([]wop(nil), r.ops...)
	c.want = append([]int64(nil), r.want...)
	return c
}

// gen produces one client's op stream.
type gen interface{ next(r *request) }

// world is a workload's trees after set-up: the mirrors, the program seed
// of each tree, and the snapshot every run restores.
type world struct {
	name    string
	sz      sizes
	seed    uint64
	trees   []*mirror
	snaps   [][]byte
	clients int
}

func treeID(i int) uint64 { return uint64(i + 1) }

// splitmix derives independent 64-bit seeds.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(splitmix(seed), splitmix(seed^stream)))
}

func randOp(rng *rand.Rand) opKind {
	if rng.IntN(2) == 0 {
		return kAdd
	}
	return kMul
}

func randVal(rng *rand.Rand) int64 { return rng.Int64N(modP) }

// growPlan records the grow batches that built a tree, to replay them on
// an Expr with GrowBatch.
type growPlan struct {
	rootVal int64
	batches [][]wop
}

// grower grows a mirror by batches of distinct random leaves.
type grower struct {
	m     *mirror
	rng   *rand.Rand
	plan  growPlan
	stamp []uint32
	epoch uint32
}

// growBatch grows each of the given distinct leaves and records the batch.
func (g *grower) growBatch(leaves *idSet, picks []int32) {
	b := make([]wop, 0, len(picks))
	for _, leaf := range picks {
		k, lv, rv := randOp(g.rng), randVal(g.rng), randVal(g.rng)
		l, r := g.m.grow(leaf, k, lv, rv, -1)
		leaves.del(leaf)
		leaves.put(l)
		leaves.put(r)
		b = append(b, wop{node: leaf, set: k, v1: lv, v2: rv})
	}
	g.plan.batches = append(g.plan.batches, b)
}

// growRandom grows uniformly chosen leaves of the set until it holds
// target leaves, in batches of at most a quarter of the set, so
// the shape is random rather than balanced.
func (g *grower) growRandom(leaves *idSet, target int) {
	var picks []int32
	for len(leaves.items) < target {
		k := min(max(len(leaves.items)/4, 1), target-len(leaves.items))
		g.epoch++
		picks = picks[:0]
		for len(picks) < k {
			id := leaves.items[g.rng.IntN(len(leaves.items))]
			for int(id) >= len(g.stamp) {
				g.stamp = append(g.stamp, 0)
			}
			if g.stamp[id] == g.epoch {
				continue
			}
			g.stamp[id] = g.epoch
			picks = append(picks, id)
		}
		g.growBatch(leaves, picks)
	}
}

func newGrower(rng *rand.Rand) *grower {
	v := randVal(rng)
	return &grower{m: newMirror(v), rng: rng, plan: growPlan{rootVal: v}}
}

// progOp maps a mirror operation to the program's.
func progOp(ring dyntc.Ring, k opKind) dyntc.Op {
	if k == kMul {
		return dyntc.OpMul(ring)
	}
	return dyntc.OpAdd(ring)
}

// snapshotOf replays a grow plan on a fresh Expr with GrowBatch, checks
// the program numbered and evaluated the tree as the mirror did, and
// returns the Expr's snapshot.
func snapshotOf(m *mirror, p growPlan, seed uint64) ([]byte, error) {
	ring := dyntc.ModRing(modP)
	e := dyntc.NewExpr(ring, p.rootVal, dyntc.WithSeed(seed))
	var ops []dyntc.GrowOp
	for _, b := range p.batches {
		ops = ops[:0]
		for _, o := range b {
			ops = append(ops, dyntc.GrowOp{Leaf: e.Tree().Nodes[o.node], Op: progOp(ring, o.set), LeftVal: o.v1, RightVal: o.v2})
		}
		base := len(e.Tree().Nodes)
		for i, pr := range e.GrowBatch(ops) {
			if pr[0].ID != base+2*i || pr[1].ID != base+2*i+1 {
				return nil, fmt.Errorf("grow assigned IDs (%d,%d), mirror expects (%d,%d)", pr[0].ID, pr[1].ID, base+2*i, base+2*i+1)
			}
		}
	}
	if got, want := e.Root(), m.root(); got != want {
		return nil, fmt.Errorf("built tree evaluates to %d, mirror says %d", got, want)
	}
	return e.Snapshot(0)
}

// buildWorld makes a workload's trees from the seed.
func buildWorld(name string, seed uint64, short bool) (*world, error) {
	w := &world{name: name, sz: sizesFor(short), seed: seed, clients: 1}
	var plans []growPlan
	switch name {
	case "churn":
		// A random tree with a caterpillar spine grafted in half-way: a
		// path of spine nodes, each with one leaf hanging off, so some
		// paths are far deeper than a random tree's.
		g := newGrower(newRand(seed, 1))
		leaves := &idSet{}
		leaves.put(0)
		g.growRandom(leaves, w.sz.churnLeaves/2)
		x := leaves.items[g.rng.IntN(len(leaves.items))]
		for i := 0; i < w.sz.churnSpine; i++ {
			g.growBatch(leaves, []int32{x})
			x = g.m.right[x]
		}
		g.growRandom(leaves, w.sz.churnLeaves)
		w.trees, plans = []*mirror{g.m}, []growPlan{g.plan}
	case "labels":
		// One tree whose two halves under the root are random trees of
		// equal size; client c works on half c only.
		g := newGrower(newRand(seed, 2))
		g.growBatch(&idSet{}, []int32{0})
		g.m.kind[0] = kAdd // halves join by addition
		g.plan.batches[0][0].set = kAdd
		g.m.fixUp(0, -1)
		for _, h := range []int32{g.m.left[0], g.m.right[0]} {
			leaves := &idSet{}
			leaves.put(h)
			g.growRandom(leaves, w.sz.labelsLeaves/2)
		}
		w.trees, plans, w.clients = []*mirror{g.m}, []growPlan{g.plan}, 2
	case "forest":
		for i := 0; i < w.sz.forestTrees; i++ {
			g := newGrower(newRand(seed, 3+uint64(i)))
			leaves := &idSet{}
			leaves.put(0)
			g.growRandom(leaves, w.sz.forestLeaf)
			w.trees, plans = append(w.trees, g.m), append(plans, g.plan)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want churn, labels or forest)", name)
	}
	for i, m := range w.trees {
		snap, err := snapshotOf(m, plans[i], splitmix(seed+uint64(i)))
		if err != nil {
			return nil, fmt.Errorf("%s tree %d: %w", name, treeID(i), err)
		}
		w.snaps = append(w.snaps, snap)
	}
	return w, nil
}

// cloneTrees copies the mirrors so a second pass starts from the same
// post-setup state.
func (w *world) cloneTrees() []*mirror {
	out := make([]*mirror, len(w.trees))
	for i, m := range w.trees {
		out[i] = m.clone()
	}
	return out
}

// generators returns one generator per client over the given mirrors.
func (w *world) generators(trees []*mirror, stream uint64) []gen {
	switch w.name {
	case "churn":
		return []gen{newChurnGen(trees[0], newRand(w.seed, stream))}
	case "labels":
		m := trees[0]
		return []gen{
			newLabelsGen(m, m.left[0], newRand(w.seed, stream)),
			newLabelsGen(m, m.right[0], newRand(w.seed, stream+1)),
		}
	default:
		return []gen{newForestGen(trees, newRand(w.seed, stream))}
	}
}

// --- churn: one op per request, grow : collapse : read = 2 : 2 : 1 ---

type churnGen struct {
	m                  *mirror
	rng                *rand.Rand
	leaves, coll, live *idSet // leaves, nodes with two leaf children, live nodes
}

func newChurnGen(m *mirror, rng *rand.Rand) *churnGen {
	g := &churnGen{m: m, rng: rng, leaves: &idSet{}, coll: &idSet{}, live: &idSet{}}
	for id := int32(0); int(id) < m.slots(); id++ {
		if !m.live[id] {
			continue
		}
		g.live.put(id)
		switch {
		case m.isLeaf(id):
			g.leaves.put(id)
		case m.isLeaf(m.left[id]) && m.isLeaf(m.right[id]):
			g.coll.put(id)
		}
	}
	return g
}

func pick(rng *rand.Rand, s *idSet) int32 { return s.items[rng.IntN(len(s.items))] }

func (g *churnGen) next(r *request) {
	m := g.m
	switch x := g.rng.IntN(5); {
	case x < 2 || (x < 4 && len(g.coll.items) == 0):
		r.reset(rqGrow, 0)
		leaf := pick(g.rng, g.leaves)
		k, lv, rv := randOp(g.rng), randVal(g.rng), randVal(g.rng)
		l, rt := m.grow(leaf, k, lv, rv, -1)
		g.leaves.del(leaf)
		g.leaves.put(l)
		g.leaves.put(rt)
		g.live.put(l)
		g.live.put(rt)
		if p := m.parent[leaf]; p != -1 {
			g.coll.del(p)
		}
		g.coll.put(leaf)
		r.ops = append(r.ops, wop{node: leaf, set: k, v1: lv, v2: rv})
		r.want = append(r.want, int64(l), int64(rt))
	case x < 4:
		r.reset(rqCollapse, 0)
		n := pick(g.rng, g.coll)
		v := randVal(g.rng)
		l, rt := m.left[n], m.right[n]
		m.collapse(n, v, -1)
		g.leaves.del(l)
		g.leaves.del(rt)
		g.leaves.put(n)
		g.live.del(l)
		g.live.del(rt)
		g.coll.del(n)
		if p := m.parent[n]; p != -1 {
			sib := m.left[p]
			if sib == n {
				sib = m.right[p]
			}
			if m.isLeaf(sib) {
				g.coll.put(p)
			}
		}
		r.ops = append(r.ops, wop{node: n, v1: v})
	default:
		r.reset(rqValue, 0)
		n := pick(g.rng, g.live)
		r.ops = append(r.ops, wop{node: n})
		r.want = append(r.want, m.val[n])
	}
}

// --- labels: /batch requests of label writes or internal-node reads,
// each client confined to its half of the tree ---

type labelsGen struct {
	m                *mirror
	rng              *rand.Rand
	leaves, internal []int32
	stamp            []uint32
	n                uint32
}

func newLabelsGen(m *mirror, half int32, rng *rand.Rand) *labelsGen {
	g := &labelsGen{m: m, rng: rng, stamp: make([]uint32, m.slots())}
	stack := []int32{half}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if m.isLeaf(n) {
			g.leaves = append(g.leaves, n)
			continue
		}
		g.internal = append(g.internal, n)
		stack = append(stack, m.left[n], m.right[n])
	}
	return g
}

// distinct picks a node of from not yet used in the current request.
func (g *labelsGen) distinct(from []int32) int32 {
	for {
		n := from[g.rng.IntN(len(from))]
		if g.stamp[n] != g.n {
			g.stamp[n] = g.n
			return n
		}
	}
}

func (g *labelsGen) next(r *request) {
	g.n++
	if g.n%4 == 0 {
		r.reset(rqValueBatch, 0)
		for i := 0; i < labelsBatch; i++ {
			n := g.distinct(g.internal)
			r.ops = append(r.ops, wop{node: n})
			r.want = append(r.want, g.m.val[n])
		}
		return
	}
	// Walks stop below the root: each client owns one half, and the root
	// is only evaluated once both are quiet.
	r.reset(rqSetBatch, 0)
	for i := 0; i < labelsBatch; i++ {
		if g.rng.IntN(8) == 0 {
			n, k := g.distinct(g.internal), randOp(g.rng)
			g.m.setOp(n, k, 0)
			r.ops = append(r.ops, wop{node: n, set: k})
			continue
		}
		n, v := g.distinct(g.leaves), randVal(g.rng)
		g.m.setLeaf(n, v, 0)
		r.ops = append(r.ops, wop{node: n, v1: v})
	}
}

// --- forest: a cross-tree root sum, then a set-leaf batch to a tree
// chosen by a Zipf law, alternating ---

type forestGen struct {
	trees  []*mirror
	rng    *rand.Rand
	zipf   *rand.Zipf
	leaves [][]int32
	stamp  [][]uint32
	n      uint32
}

func newForestGen(trees []*mirror, rng *rand.Rand) *forestGen {
	g := &forestGen{trees: trees, rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(trees)-1))}
	for _, m := range trees {
		var ls []int32
		for id := int32(0); int(id) < m.slots(); id++ {
			if m.live[id] && m.isLeaf(id) {
				ls = append(ls, id)
			}
		}
		g.leaves = append(g.leaves, ls)
		g.stamp = append(g.stamp, make([]uint32, m.slots()))
	}
	return g
}

func (g *forestGen) next(r *request) {
	g.n++
	if g.n%2 == 1 {
		r.reset(rqQuery, 0)
		var sum int64
		for _, m := range g.trees {
			sum += m.root()
		}
		r.want = append(r.want, sum)
		return
	}
	t := int(g.zipf.Uint64())
	r.reset(rqSetBatch, t)
	m, ls, st := g.trees[t], g.leaves[t], g.stamp[t]
	for i := 0; i < forestBatch; i++ {
		n := ls[g.rng.IntN(len(ls))]
		if st[n] == g.n {
			i--
			continue
		}
		st[n] = g.n
		v := randVal(g.rng)
		m.setLeaf(n, v, -1)
		r.ops = append(r.ops, wop{node: n, v1: v})
	}
}
