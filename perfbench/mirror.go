package main

// The oracle: a plain mirror of every expression tree the benchmark
// drives. It shares no code with the program under test — it keeps the
// shape as parent/child index arrays, evaluates add and mul directly mod
// p, and predicts the dense node IDs the program assigns (grows append two
// slots; collapsed slots are never reused).

// modP is the modulus of every tree's ring (dyntcd's default "mod" ring).
const modP = 1_000_000_007

// opKind is a mirror node's kind: a leaf or one of the two operations.
type opKind uint8

const (
	kLeaf opKind = iota
	kAdd
	kMul
)

func (k opKind) String() string {
	switch k {
	case kAdd:
		return "add"
	case kMul:
		return "mul"
	}
	return "leaf"
}

// apply evaluates an operation on two values in [0, p).
func apply(k opKind, x, y int64) int64 {
	if k == kMul {
		return x * y % modP
	}
	return (x + y) % modP
}

// mirror is one tree. val holds a leaf's value and an internal node's
// subtree value, kept current by walking up from every change.
type mirror struct {
	parent, left, right []int32
	kind                []opKind
	val                 []int64
	live                []bool
	nLive               int
}

func newMirror(rootVal int64) *mirror {
	m := &mirror{}
	m.add(-1, rootVal)
	return m
}

func (m *mirror) add(parent int32, v int64) int32 {
	id := int32(len(m.kind))
	m.parent = append(m.parent, parent)
	m.left = append(m.left, -1)
	m.right = append(m.right, -1)
	m.kind = append(m.kind, kLeaf)
	m.val = append(m.val, v)
	m.live = append(m.live, true)
	m.nLive++
	return id
}

// clone returns an independent copy.
func (m *mirror) clone() *mirror {
	return &mirror{
		parent: append([]int32(nil), m.parent...),
		left:   append([]int32(nil), m.left...),
		right:  append([]int32(nil), m.right...),
		kind:   append([]opKind(nil), m.kind...),
		val:    append([]int64(nil), m.val...),
		live:   append([]bool(nil), m.live...),
		nLive:  m.nLive,
	}
}

func (m *mirror) slots() int          { return len(m.kind) }
func (m *mirror) isLeaf(n int32) bool { return m.kind[n] == kLeaf }
func (m *mirror) leaves() int         { return (m.nLive + 1) / 2 }

// fixUp recomputes subtree values from n up to, but excluding, stop
// (-1 walks to the root).
func (m *mirror) fixUp(n, stop int32) {
	for n != -1 && n != stop {
		m.val[n] = apply(m.kind[n], m.val[m.left[n]], m.val[m.right[n]])
		n = m.parent[n]
	}
}

// grow turns leaf into an operation node with two fresh leaves and
// returns their IDs, exactly as the program numbers them.
func (m *mirror) grow(leaf int32, k opKind, lv, rv int64, stop int32) (int32, int32) {
	l := m.add(leaf, lv)
	r := m.add(leaf, rv)
	m.left[leaf], m.right[leaf], m.kind[leaf] = l, r, k
	m.fixUp(leaf, stop)
	return l, r
}

// collapse deletes n's two leaf children, making n a leaf with value v.
func (m *mirror) collapse(n int32, v int64, stop int32) {
	for _, c := range [2]int32{m.left[n], m.right[n]} {
		m.live[c] = false
		m.nLive--
	}
	m.left[n], m.right[n], m.kind[n], m.val[n] = -1, -1, kLeaf, v
	m.fixUp(m.parent[n], stop)
}

func (m *mirror) setLeaf(n int32, v int64, stop int32) {
	m.val[n] = v
	m.fixUp(m.parent[n], stop)
}

func (m *mirror) setOp(n int32, k opKind, stop int32) {
	m.kind[n] = k
	m.fixUp(n, stop)
}

// root returns the value of the whole tree, recomputing the root itself
// (workloads that stop their walks below it leave it stale).
func (m *mirror) root() int64 {
	if m.isLeaf(0) {
		return m.val[0]
	}
	return apply(m.kind[0], m.val[m.left[0]], m.val[m.right[0]])
}

// idSet is a set of node IDs with O(1) insert, delete and uniform pick.
type idSet struct {
	items []int32
	pos   []int32 // pos[id] = index in items, or -1
}

func (s *idSet) has(id int32) bool { return int(id) < len(s.pos) && s.pos[id] >= 0 }

func (s *idSet) put(id int32) {
	for int(id) >= len(s.pos) {
		s.pos = append(s.pos, -1)
	}
	if s.pos[id] >= 0 {
		return
	}
	s.pos[id] = int32(len(s.items))
	s.items = append(s.items, id)
}

func (s *idSet) del(id int32) {
	if !s.has(id) {
		return
	}
	i := s.pos[id]
	last := s.items[len(s.items)-1]
	s.items[i] = last
	s.pos[last] = i
	s.items = s.items[:len(s.items)-1]
	s.pos[id] = -1
}
