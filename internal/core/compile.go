package core

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"memreliability/internal/mc"
	"memreliability/internal/rng"
)

// This file is the package's one fast trial engine. Compile lowers a
// KernelIR, once per query, into a Program whose hot loop replays the
// reference process — prog.Generate → settle.Settle → shift.DisjointTrial,
// as ManifestTrial and NoBugBatch run it — draw for draw, without a
// single branch on a draw's value:
//
//   - draws come from a bulk-filled word buffer (drawCursor over
//     rng.FillUint64s), and after each refill the cursor turns the
//     buffer into one success bitmap per distinct threshold, plus the
//     length of the success run starting at every draw of the swap
//     threshold;
//   - the program prefix (m ≤ 64 binary kinds, LD = 0, ST = 1) is one
//     64-bit window of the store bitmap, and each settling walk is the
//     arithmetic minimum of two runs: the permitted run (LeadingZeros64
//     of a register marking the kinds the moving instruction may not
//     pass) and the success run. A walk consumes one draw per success,
//     plus the failing draw when a failure, not a forbidden neighbour,
//     ended it; a geometric shift is the trailing ones of one window;
//   - the p, s ∈ {0,1} edges need no variants: a certain outcome reads a
//     constant bitmap and consumes no draw, exactly as the reference
//     draws nothing there.
//
// Compile also picks, from the permission surface alone, how much of
// the settled order a copy must track: nothing when nothing moves (SC,
// or s = 0), nothing but the walks' own lengths when everything passes
// everything (WO), one run length when whatever moves passes a single
// kind (TSO, PSO), and the bit-packed order otherwise. Prefixes longer
// than one word (m > 64) run a per-draw walk over byte arrays on the
// same bitmaps (sampleWide). The correctness gate is bit-identity with
// the reference closures on the same source — same bits, same
// products, same final generator state — which the property tests
// (compile_test.go) check over the parameter lattice.

const (
	// cursorWords is the bulk-draw refill period: a refill happens once
	// the cursor has moved past this many draws.
	cursorWords = 1024
	// lookahead draws follow the refill period in the buffer, so a walk
	// that starts at or before cursorWords can see any 64 draws ahead.
	lookahead = 64
	bufWords  = cursorWords + lookahead
	// mapWords is the bitmap length: bufWords/64 words plus the window's
	// second word, rounded up to a power of two so masked indices need
	// no bounds checks.
	mapWords = 32
	// Bitmap slots: the two constants, then up to three computed
	// thresholds (store, swap, shift).
	zerosMap = 0
	onesMap  = 1
)

// bitmap holds one success bit per buffered draw: bit j of word w is
// set iff draw 64w+j succeeds against the slot's threshold.
type bitmap [mapWords]uint64

// noneMap and allMap are the constant slots' bitmaps: a certain failure
// and a certain success, shared by every cursor.
var noneMap, allMap = bitmap{}, func() (b bitmap) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	return b
}()

// window returns the success bits of the 64 draws starting at pos, in
// draw order from the least significant bit.
func window(mp *bitmap, pos int) uint64 {
	w, sh := pos>>6, uint(pos&63)
	// (hi << (63-sh)) << 1 is hi << (64-sh), and 0 when sh == 0.
	return mp[w&(mapWords-1)]>>sh | mp[(w+1)&(mapWords-1)]<<(63-sh)<<1
}

// runLengths holds, per buffered draw, the number of consecutive
// successes starting there within the buffer — exact up to the 64 a
// walk can use, thanks to the lookahead. Reading a walk's success run
// is then one load, where a bitmap window costs two loads, two variable
// shifts and a bit scan on the chain from one walk's cursor to the
// next.
type runLengths [bufWords]uint16

// noRuns and allRuns are the run lengths of a certain failure and a
// certain success.
var noRuns, allRuns = runLengths{}, func() (r runLengths) {
	for i := range r {
		r[i] = bufWords
	}
	return r
}()

// drawCursor serves draws from a bulk-generated buffer while keeping
// the source externally indistinguishable from sequential Uint64
// consumption. The buffer holds only what the engine reads — one
// success bitmap per distinct threshold and the swap threshold's run
// lengths, over bufWords draws; the raw words pass through a 64-word
// chunk. The mc harness calls a batch function repeatedly on one source
// (sub-batches between cancellation checks) and relies on the source's
// final state, so the cursor keeps the generator state at the buffer's
// first draw and, on sync, rewinds and re-advances by exactly the draws
// consumed. The cursor position itself lives in the caller's local (a
// register) and is passed in and out.
type drawCursor struct {
	// Pointers come first, so the collector's scan of a pooled state
	// stops before the arrays.
	src *rng.Source
	// thr lists the raw (64-bit) thresholds of the computed slots.
	thr []uint64
	// store, swap and shift are the roles' bitmaps, runs the swap
	// role's run lengths: the cursor's own when computed, else shared
	// constants.
	store, swap, shift *bitmap
	runs               *runLengths
	// snap is the generator state before the buffer's first draw; next
	// is the state before draw cursorWords, the next refill's first.
	snap, next [4]uint64
	maps       [3]bitmap
	ownRuns    runLengths
	chunk      [64]uint64
}

// slot returns the bitmap of a program slot.
func (c *drawCursor) slot(s int) *bitmap {
	switch s {
	case zerosMap:
		return &noneMap
	case onesMap:
		return &allMap
	}
	return &c.maps[s-onesMap-1]
}

// attach binds the cursor to a source at the start of a batch call and
// fills the whole buffer; it returns the starting position.
func (c *drawCursor) attach(src *rng.Source, p *Program) int {
	c.src, c.thr = src, p.thr
	c.store, c.swap, c.shift = c.slot(p.storeMap), c.slot(p.swapMap), c.slot(p.shiftMap)
	switch p.swapMap {
	case zerosMap:
		c.runs = &noRuns
	case onesMap:
		c.runs = &allRuns
	default:
		c.runs = &c.ownRuns
	}
	c.snap = src.State()
	c.fill(0)
	return 0
}

// refill slides the buffer forward by cursorWords — the lookahead draws
// move to the front, fresh draws fill the rest — and returns pos in the
// new buffer's coordinates. Callers invoke it when pos > cursorWords.
func (c *drawCursor) refill(pos int) int {
	for i := range c.thr {
		c.maps[i][0] = c.maps[i][cursorWords/64]
	}
	c.snap = c.next
	c.fill(lookahead / 64)
	return pos - cursorWords
}

// fill generates the buffer's draws from bitmap word from on, noting
// the generator state before draw cursorWords, then rebuilds the run
// lengths. A draw succeeds iff its word is below the raw threshold,
// read off the borrow; four accumulators, one per 16-word quarter of a
// bitmap word, keep four independent shift chains in flight.
func (c *drawCursor) fill(from int) {
	for w := from; w < bufWords/64; w++ {
		if w == cursorWords/64 {
			c.next = c.src.State()
		}
		c.src.FillUint64s(c.chunk[:])
		for i, thr := range c.thr {
			var m0, m1, m2, m3 uint64
			for j := 15; j >= 0; j-- {
				_, b0 := bits.Sub64(c.chunk[j], thr, 0)
				_, b1 := bits.Sub64(c.chunk[j+16], thr, 0)
				_, b2 := bits.Sub64(c.chunk[j+32], thr, 0)
				_, b3 := bits.Sub64(c.chunk[j+48], thr, 0)
				m0, m1, m2, m3 = m0<<1|b0, m1<<1|b1, m2<<1|b2, m3<<1|b3
			}
			c.maps[i][w] = m0 | m1<<16 | m2<<32 | m3<<48
		}
	}
	if c.runs == &c.ownRuns {
		var run uint16
		for w := bufWords/64 - 1; w >= 0; w-- {
			x, out := c.swap[w], (*[64]uint16)(c.ownRuns[w*64:])
			for j := 63; j >= 0; j-- {
				run = (run + 1) & -uint16(x>>63)
				out[j] = run
				x <<= 1
			}
		}
	}
}

// sync leaves the source exactly where sequential per-draw consumption
// would have: rewind to the state before the buffer's first draw, then
// re-advance by the pos draws consumed from it.
func (c *drawCursor) sync(pos int) {
	if err := c.src.Restore(c.snap); err != nil {
		// Unreachable: the snapshot was captured from a live source.
		panic(fmt.Sprintf("core: cursor resync: %v", err))
	}
	for ; pos > 0; pos -= len(c.chunk) {
		c.src.FillUint64s(c.chunk[:min(pos, len(c.chunk))])
	}
	c.src = nil
}

// walk settles one instruction that may pass perm neighbours when the
// next succ draws succeed: it moves min(perm, succ) places, consuming
// one draw per success plus the failing draw when a failure (not a
// forbidden neighbour or the program's end) ended the walk; step masks
// the consumption to zero for a certain, draw-free swap. The min is
// arithmetic: Go compiles both the min builtin and an if to a
// conditional jump here, which mispredicts on every other walk.
func walk(perm, succ, pos, step int) (moved, next int) {
	d := succ - perm
	neg := d >> 63 // -1 iff a failed draw ended the walk
	moved = perm + d&neg
	return moved, pos + (moved-neg)&step
}

// runBelow returns how many positions below top an instruction passes
// before the first blocked one: blocked marks (bit i) the positions that
// block it, and below is the mask of the positions under top.
func runBelow(blocked, below uint64, top int) int {
	// The leading zeros of the bits below top, less the 64-top bits
	// above it; no blocked bit at all gives exactly top.
	return bits.LeadingZeros64(blocked&below) + top - 64
}

// compiledState is the per-goroutine scratch a Program trial runs on.
// States are pooled inside the Program, so steady-state batch calls
// allocate nothing.
type compiledState struct {
	segments []int
	shifts   []int
	// typ and order hold the prefix kinds and the settling order on the
	// wide (m > 64) path only.
	typ   []uint8
	order []uint8
	cur   drawCursor // last: its arrays hold no pointers
}

// Program is a compiled trial kernel for one IR: the query's constants
// lowered into masks, bitmap slots and draw steps, plus a pool of
// scratch states. A Program is immutable after Compile and safe for
// concurrent batch calls; it stays valid even after eviction from a
// plan cache.
type Program struct {
	threads int
	m       int
	wide    bool
	// thr lists the distinct raw thresholds the cursor maps after each
	// refill; storeMap, swapMap and shiftMap pick each role's slot.
	thr                         []uint64
	storeMap, swapMap, shiftMap int
	// prefixDraws is the draw count of one prefix (m, or 0 for p ∈
	// {0,1}); swapStep and shiftStep are all-ones when an attempt
	// consumes a draw and zero when its outcome is certain.
	prefixDraws         int
	swapStep, shiftStep int
	// typMask keeps the prefix's m bits; walkers[k] is all-ones when a
	// prefix instruction of kind k can move at all, and rangeMask drops
	// position 0, which never can.
	typMask, rangeMask uint64
	walkers            [2]uint64
	// blockST[k] (blockLD[k]) is all-ones when kind k may not pass a
	// prefix ST (LD), so o&blockST[k] | blockLD[k]&^o marks the
	// positions of the packed prefix o that block kind k.
	blockST, blockLD [4]uint64
	// blind is set when every kind may pass every prefix kind (WO's
	// surface): no walk then depends on the kinds around it. still is
	// set when no kind may pass any (SC's surface, or s = 0): nothing
	// moves and nothing but the prefix draws, so every Γ stays 2.
	blind, still bool
	// runOf is P+1 when every instruction that moves at all — prefix
	// or critical — may pass only the prefix kind P (TSO's and PSO's
	// surfaces, P = ST): the settled order then matters only through
	// the run of P kinds at its top (sampleRuns). It is 0 otherwise.
	runOf int
	// allow[k] bit j permits kind k (0 LD, 1 ST, 2 critical LD, 3
	// critical ST) to pass a prefix kind j: the wide path's form.
	allow [4]uint8
	pool  sync.Pool
}

// Compile lowers the IR into a Program. It rejects IRs outside the
// engine's domain: per-pair swap thresholds and a shift that always
// succeeds, neither of which Config.BuildIR emits.
func (ir *KernelIR) Compile() (*Program, error) {
	if ir.Threads < 2 || ir.PrefixLen < 0 {
		return nil, fmt.Errorf("%w: IR with %d threads, prefix length %d", ErrBadConfig, ir.Threads, ir.PrefixLen)
	}
	mask, swapThr, ok := ir.uniformSwap()
	if !ok {
		return nil, fmt.Errorf("%w: IR with per-pair swap thresholds", ErrBadConfig)
	}
	if ir.ShiftThr >= 1<<53 {
		// A certain geometric success never terminates.
		return nil, fmt.Errorf("%w: IR with shift success probability 1", ErrBadConfig)
	}
	m := ir.PrefixLen
	p := &Program{threads: ir.Threads, m: m, wide: m > 64}
	p.pool.New = func() any { return p.newState() }

	// slot maps a threshold onto a bitmap slot and reports whether a
	// test against it consumes a draw.
	slot := func(thr uint64) (int, bool) {
		switch {
		case thr == neverThr:
			return zerosMap, false
		case thr == alwaysThr:
			return onesMap, false
		case thr >= 1<<53:
			return onesMap, true // every draw's 53-bit variate is below it
		}
		raw := thr << 11 // v>>11 < thr ⟺ v < thr·2¹¹, which fits here
		for i, t := range p.thr {
			if t == raw {
				return onesMap + 1 + i, true
			}
		}
		p.thr = append(p.thr, raw)
		return onesMap + len(p.thr), true
	}
	all := func(b bool) int {
		if b {
			return -1
		}
		return 0
	}
	var draws bool
	p.storeMap, draws = slot(ir.StoreThr)
	if draws {
		p.prefixDraws = m
	}
	p.shiftMap, draws = slot(ir.ShiftThr)
	p.shiftStep = all(draws)
	if swapThr == neverThr {
		mask = [4]uint8{} // s = 0: nothing ever moves, and nothing draws
	}
	p.swapMap, draws = slot(swapThr)
	p.swapStep = all(draws)

	for k := 0; k < 4; k++ {
		for prev := 0; prev < 2; prev++ {
			p.allow[k] |= (mask[prev] >> uint(k) & 1) << uint(prev)
		}
	}
	for k := range p.allow {
		p.blockST[k] = uint64(all(p.allow[k]&2 == 0))
		p.blockLD[k] = uint64(all(p.allow[k]&1 == 0))
	}
	for k := 0; k < 2; k++ {
		p.walkers[k] = uint64(all(p.allow[k] != 0))
	}
	p.blind = p.allow == [4]uint8{3, 3, 3, 3}
	p.still = p.allow == [4]uint8{}
	for P := 0; P < 2 && !p.still; P++ {
		one := uint8(1) << uint(P)
		if p.allow[0]&^one == 0 && p.allow[1]&^one == 0 &&
			p.allow[2]&^one == 0 && p.allow[3]&^one == 0 {
			p.runOf = P + 1
		}
	}
	if !p.wide {
		p.typMask = 1<<uint(m) - 1 // m == 64 wraps to all-ones
		p.rangeMask = p.typMask &^ 1
	}
	corePlansCompiled.Inc()
	return p, nil
}

// newState builds one scratch state.
func (p *Program) newState() *compiledState {
	st := &compiledState{
		segments: make([]int, p.threads),
		shifts:   make([]int, p.threads),
	}
	for t := range st.segments {
		st.segments[t] = 2 // γ = 0; a still program never writes them
	}
	if p.wide {
		st.typ = make([]uint8, p.m)
		st.order = make([]uint8, p.m)
	}
	return st
}

// sample runs one iteration of the §6 generative process into
// st.segments — one prefix, n settled copies, Γ_k = γ_k + 2 — starting
// at cursor position pos, and returns the position after it.
func (p *Program) sample(st *compiledState, pos int) int {
	if p.wide {
		return p.sampleWide(st, pos)
	}
	cur := &st.cur
	if pos > cursorWords {
		pos = cur.refill(pos)
	}
	typ := window(cur.store, pos) & p.typMask // bit i: kind at position i
	pos += p.prefixDraws
	if p.still {
		return pos
	}
	if p.runOf != 0 {
		return p.sampleRuns(st, typ, pos)
	}
	runs, step := cur.runs, p.swapStep
	blockST, blockLD := &p.blockST, &p.blockLD
	// Elements settle in position order, and each is visited at its
	// original position with its original kind — settling only disturbs
	// the positions below the one walking — so the visit set is a pure
	// function of the prefix. An element whose kind may pass nothing
	// stops before its first draw and is skipped outright.
	elems := (typ&p.walkers[1] | p.walkers[0]&^typ) & p.rangeMask
	m, typMask := p.m, p.typMask
	for t := range st.segments {
		o, e := typ, elems
		for {
			o, e, pos = p.walkElems(o, e, pos, runs)
			if e == 0 {
				break
			}
			pos = cur.refill(pos)
		}
		// Round m+1 walks the critical LD up a positions; round m+2
		// walks the critical ST up b ≤ a of the ones the LD passed (b ==
		// a is the critical LD itself: same location, no draw).
		if pos > cursorWords {
			pos = cur.refill(pos)
		}
		var a, b int
		a, pos = walk(runBelow(o&blockST[kindCritLoad]|blockLD[kindCritLoad]&^o, typMask, m), int(runs[pos]), pos, step)
		if pos > cursorWords {
			pos = cur.refill(pos)
		}
		perm := runBelow(o&blockST[kindCritStore]|blockLD[kindCritStore]&^o, typMask, m)
		d := a - perm
		b, pos = walk(perm+d&(d>>63), int(runs[pos]), pos, step) // min(perm, a)
		st.segments[t] = a - b + 2
	}
	return pos
}

// sampleRuns settles n copies of typ for a surface where whatever
// moves may pass only kind P (see Program.runOf). The only state a copy
// needs is r, the run of P kinds directly below the position being
// settled: an element that walks moves s = min(r, successes) places,
// one that cannot walks none, and the run below the next position is
// then r+1 if the element is itself a P (it joins the run) and s if not
// (the s kinds it passed now sit on top of it).
func (p *Program) sampleRuns(st *compiledState, typ uint64, pos int) int {
	cur := &st.cur
	runs, step, m := cur.runs, p.swapStep, p.m
	// isP has bit i set iff position i holds a P, moves iff the element
	// there walks at all.
	isP := typ
	if p.runOf == 1 {
		isP = ^typ & p.typMask
	}
	moves := typ&p.walkers[1] | p.walkers[0]&^typ
	critLD := -int(p.allow[kindCritLoad]>>1 | p.allow[kindCritLoad]&1)
	critST := -int(p.allow[kindCritStore]>>1 | p.allow[kindCritStore]&1)
	for t := range st.segments {
		r := int(isP & 1)
		for at := 1; at < m; at++ {
			if pos > cursorWords {
				pos = cur.refill(pos)
			}
			var s int
			s, pos = walk(r&-int(moves>>uint(at)&1), int(runs[pos]), pos, step)
			inP := -int(isP >> uint(at) & 1)
			r = s + (r+1-s)&inP
		}
		if pos > cursorWords {
			pos = cur.refill(pos)
		}
		var a, b int
		a, pos = walk(r&critLD, int(runs[pos]), pos, step)
		if pos > cursorWords {
			pos = cur.refill(pos)
		}
		b, pos = walk(a&critST, int(runs[pos]), pos, step)
		st.segments[t] = a - b + 2
	}
	return pos
}

// walkElems settles the elements e of the packed prefix o in position
// order until none is left or the cursor passes cursorWords, and
// returns the settled prefix, the elements left and the cursor. Keeping
// the refill call out of this loop keeps its state in registers.
func (p *Program) walkElems(o, e uint64, pos int, runs *runLengths) (uint64, uint64, int) {
	if p.blind {
		// Every kind passes every kind: a walk's length depends on the
		// draws alone, and the order it leaves behind on nothing.
		for ; e != 0 && pos <= cursorWords; e &= e - 1 {
			_, pos = walk(bits.TrailingZeros64(e), int(runs[pos]), pos, p.swapStep)
		}
		return o, e, pos
	}
	st0, ld0, st1, ld1 := p.blockST[0], p.blockLD[0], p.blockST[1], p.blockLD[1]
	step := p.swapStep
	for ; e != 0 && pos <= cursorWords; e &= e - 1 {
		at := uint(bits.TrailingZeros64(e)) & 63
		bit := e & -e    // 1 << at
		k := o >> at & 1 // the element has not moved yet
		// The positions blocking each kind, selected by k without a
		// load that would wait on it.
		b0, b1 := o&st0|ld0&^o, o&st1|ld1&^o
		var s int
		s, pos = walk(runBelow(b0^(b0^b1)&-k, bit-1, int(at)), int(runs[pos]), pos, step)
		// Land the element s places down: the kinds it passed, the bits
		// between lo and at, each move up one (adding them to
		// themselves), and bit at moves to lo.
		lo := bit >> uint(s)
		o += o&(bit-lo) + (lo-bit)&-k
	}
	return o, e, pos
}

// sampleWide is sample for prefixes longer than one word: the same
// process, one draw at a time, over byte arrays of kinds.
func (p *Program) sampleWide(st *compiledState, pos int) int {
	cur := &st.cur
	typ, order, m := st.typ, st.order, p.m
	store, swap := cur.store, cur.swap
	storeStep := p.prefixDraws / m // 1, or 0 for a constant prefix
	step := p.swapStep & 1
	var ok uint64
	for i := range typ {
		ok, pos = cur.test(store, pos, storeStep)
		typ[i] = uint8(ok)
	}
	if p.still {
		return pos
	}
	for t := range st.segments {
		copy(order, typ)
		for r := 1; r < m; r++ {
			moving := order[r]
			allow := p.allow[moving&1]
			j := r
			for ; j > 0 && allow>>order[j-1]&1 != 0; j-- {
				if ok, pos = cur.test(swap, pos, step); ok == 0 {
					break
				}
				order[j] = order[j-1]
			}
			order[j] = moving
		}
		a, b := 0, 0
		for ; a < m && p.allow[kindCritLoad]>>order[m-1-a]&1 != 0; a++ {
			if ok, pos = cur.test(swap, pos, step); ok == 0 {
				break
			}
		}
		for ; b < a && p.allow[kindCritStore]>>order[m-1-b]&1 != 0; b++ {
			if ok, pos = cur.test(swap, pos, step); ok == 0 {
				break
			}
		}
		st.segments[t] = a - b + 2
	}
	return pos
}

// test returns the outcome (1 for success) of the one draw at pos
// against mp, refilling first if pos has passed cursorWords, and the
// position after it: pos+step, where step is 0 for a draw-free outcome.
func (c *drawCursor) test(mp *bitmap, pos, step int) (uint64, int) {
	if pos > cursorWords {
		pos = c.refill(pos)
	}
	return window(mp, pos) & 1, pos + step
}

// geometric draws one shift: the count of successes before the first
// failure. A run of 64 successes (probability 2⁻⁶⁴ for the standard
// shift) spills into another window.
func (p *Program) geometric(cur *drawCursor, pos int) (int, int) {
	n := 0
	for {
		if pos > cursorWords {
			pos = cur.refill(pos)
		}
		r := bits.TrailingZeros64(^window(cur.shift, pos))
		n += r
		if r < 64 {
			return n, pos + (r+1)&p.shiftStep
		}
		pos += 64
	}
}

// disjoint draws the n shifts for st.segments and reports the event A:
// the shifted closed windows [sᵢ, sᵢ+Γᵢ] are pairwise disjoint, checked
// in shift.Placement.Disjoint's order.
func (p *Program) disjoint(st *compiledState, pos int) (bool, int) {
	cur, seg := &st.cur, st.segments
	if p.threads == 2 {
		var s0, s1 int
		s0, pos = p.geometric(cur, pos)
		s1, pos = p.geometric(cur, pos)
		return s0 > s1+seg[1] || s1 > s0+seg[0], pos
	}
	shifts := st.shifts
	for i := range shifts {
		shifts[i], pos = p.geometric(cur, pos)
	}
	for i := range shifts {
		for j := i + 1; j < len(shifts); j++ {
			if shifts[i] <= shifts[j]+seg[j] && shifts[j] <= shifts[i]+seg[i] {
				return false, pos
			}
		}
	}
	return true, pos
}

// FillBits evaluates n consecutive no-bug trials into out under the
// mc.BatchTrialBits contract (LSB-first, unused final-word bits zero),
// bit-identical to the NoBugBatch reference on the same source,
// including the source's final state. Zero steady-state allocations.
func (p *Program) FillBits(src *rng.Source, out []uint64, n int) error {
	st := p.pool.Get().(*compiledState)
	defer p.pool.Put(st)
	pos := st.cur.attach(src, p)
	words := out[:mc.BitWords(n)]
	for w := range words {
		words[w] = 0
	}
	for i := 0; i < n; i++ {
		pos = p.sample(st, pos)
		var ok bool
		ok, pos = p.disjoint(st, pos)
		if ok {
			words[i>>6] |= 1 << uint(i&63)
		}
	}
	st.cur.sync(pos)
	return nil
}

// FillProducts evaluates len(out) consecutive Theorem 6.1 product trials
// into out under the mc.BatchMean contract, bit-identical to the
// ProductTrial reference. Zero steady-state allocations.
func (p *Program) FillProducts(src *rng.Source, out []float64) error {
	st := p.pool.Get().(*compiledState)
	defer p.pool.Put(st)
	pos := st.cur.attach(src, p)
	for i := range out {
		pos = p.sample(st, pos)
		out[i] = productOf(st.segments)
	}
	st.cur.sync(pos)
	return nil
}

// NoBugBits returns the bitset-batched form of the full joined-process
// trial: bit i of the output reports whether the bug did NOT manifest
// (the event A) on the i-th trial. It runs on the config's compiled
// Program from the default plan cache, so repeated queries share one
// compile; concurrent per-chunk calls each take a private pooled state.
func (c Config) NoBugBits() (mc.BatchTrialBits, error) {
	prog, err := c.program()
	if err != nil {
		return nil, err
	}
	return prog.FillBits, nil
}

// ProductBatch returns the batched form of the Theorem 6.1 product
// trial: out[i] is one sample of Π_{i=1}^{n-1} 2^-i·Γᵢ from a fresh
// joined-process draw, on the config's plan-cached compiled Program.
func (c Config) ProductBatch() (mc.BatchMean, error) {
	prog, err := c.program()
	if err != nil {
		return nil, err
	}
	return prog.FillProducts, nil
}

// program validates the config and returns its plan-cached Program.
func (c Config) program() (*Program, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return DefaultPlanCache().Lookup(c)
}

// EstimateNoBugProbCompiled is EstimateNoBugProb, kept under the name
// the mc-compiled estimator kind has always called: both kinds run on
// the one compiled engine.
func EstimateNoBugProbCompiled(ctx context.Context, cfg Config, mcCfg mc.Config) (*mc.Result, error) {
	return EstimateNoBugProb(ctx, cfg, mcCfg)
}
