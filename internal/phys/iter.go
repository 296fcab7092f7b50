package phys

import (
	"container/heap"
	"context"
	"sort"

	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/ctxpoll"
	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/phys/vec"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
)

// iter is a pull-based batch iterator (a volcano-style operator working on
// batches of AU-tuples instead of single rows).
//
// Contract:
//
//   - Open binds the iterator to the query context; Next observes the same
//     context (cooperatively, at ctxpoll stride — vectorized kernels poll
//     once per batch, per-row kernels per row).
//   - Next returns the next non-empty batch, or nil when the input is
//     exhausted. The returned batch is valid only until the next Next or
//     Close call — streaming operators reuse their output buffers and
//     selection vectors, and scans return views into base-table storage.
//     Consumers that retain rows must copy them (appending the Tuple
//     structs of a row batch is a copy; columnar rows are gathered via
//     vec.Batch.AppendTuples/AppendRow; attribute ranges are immutable
//     and may stay shared).
//   - Close releases resources and is safe to call more than once and
//     after a failed Open.
type iter interface {
	Open(ctx context.Context) error
	Next() (*vec.Batch, error)
	Close() error
	Schema() schema.Schema
}

// ---------------------------------------------------------------- scan --

// scanIter streams the rows of a base relation in fixed-size batches.
// Over a dense relation batches are row batches wrapping subslices of the
// stored tuples (a scan never copies); over a sparse relation batches are
// columnar views aliasing the stored rangeval.Col columns and
// multiplicity slices — zero densification, zero per-batch allocation.
// Either way a partitioned scan ([lo, hi) ranges of one relation) feeds
// the exchange operator without any coordination.
type scanIter struct {
	rel    *core.Relation
	sch    schema.Schema
	lo, hi int
	batch  int

	ctx    context.Context
	pos    int
	cols   []rangeval.Col
	mflat  []int64
	mdense []core.Mult
	out    vec.Batch
}

func newScanIter(rel *core.Relation, lo, hi, batch int) *scanIter {
	return &scanIter{rel: rel, sch: rel.Schema, lo: lo, hi: hi, batch: batch}
}

func (s *scanIter) Open(ctx context.Context) error {
	s.ctx = ctx
	s.pos = s.lo
	s.cols, s.mflat, s.mdense, _ = s.rel.SparseView()
	return ctx.Err()
}

func (s *scanIter) Next() (*vec.Batch, error) {
	if s.pos >= s.hi {
		return nil, nil
	}
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	end := s.pos + s.batch
	if end > s.hi {
		end = s.hi
	}
	if s.cols != nil {
		s.out.SetSparseSpan(s.cols, s.mflat, s.mdense, s.pos, end)
	} else {
		s.out.SetRows(s.rel.DenseRange(s.pos, end))
	}
	s.pos = end
	return &s.out, nil
}

func (s *scanIter) Close() error          { return nil }
func (s *scanIter) Schema() schema.Schema { return s.sch }

// -------------------------------------------------------------- select --

// selectIter applies σ per batch. Row batches take the per-row kernel
// into a reused output buffer: steady-state selection allocates nothing
// and never clones tuples (FilterTuple only rewrites the multiplicity
// triple, which lives in the Tuple struct). Columnar batches are filtered
// in place by the range program (expr.CompileRange), column at a time,
// and only refine the selection vector: survivors are marked, never
// copied.
//
//   - A row whose truth is a point is kept when it holds and dropped when
//     it does not, with its multiplicity untouched: FilterTuple multiplies
//     it by (1,1,1) or by (0,0,0), and a live row's M.Hi is at least 1
//     (storage drops the other rows, and so does this filter).
//     So a batch with no exceptions passes its multiplicities through.
//   - An exception, a row that may hold but not certainly, scales its
//     multiplicity by TruthMult as FilterTuple does, into a reused buffer
//     by physical index.
//   - When the program fails on the batch, or the predicate is not
//     compilable, the batch is densified and filtered by the per-row
//     kernel, which reports the reference executor's row-order error.
type selectIter struct {
	child iter
	pred  expr.Expr
	sch   schema.Schema

	poll   *ctxpoll.Poll
	prog   *expr.RangeProg
	truths []expr.Truth
	sel    []int
	seq    []int
	mult   []core.Mult
	dense  []core.Tuple
	buf    []core.Tuple
	out    vec.Batch
}

func (s *selectIter) Open(ctx context.Context) error {
	s.poll = ctxpoll.New(ctx)
	s.prog, _ = expr.CompileRange(s.pred)
	return s.child.Open(ctx)
}

func (s *selectIter) Next() (*vec.Batch, error) {
	for {
		b, err := s.child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		if !b.Columnar {
			if err := s.rowFilter(b.Rows); err != nil {
				return nil, err
			}
			if len(s.buf) > 0 {
				s.out.SetRows(s.buf)
				return &s.out, nil
			}
			continue
		}
		if err := s.poll.Due(); err != nil {
			return nil, err
		}
		if s.prog != nil && s.filter(b) {
			if len(s.sel) > 0 {
				return &s.out, nil
			}
			continue
		}
		if err := s.fallback(b); err != nil {
			return nil, err
		}
		if len(s.buf) > 0 {
			return &s.out, nil
		}
	}
}

// filter filters a columnar batch in place through the range program
// into s.out, reporting false when the program fails on it.
func (s *selectIter) filter(b *vec.Batch) bool {
	if len(s.truths) < b.N {
		s.truths = make([]expr.Truth, b.N)
		s.mult = make([]core.Mult, b.N)
	}
	if s.prog.TruthInto(b.Cols, b.N, b.Sel, s.truths) != nil {
		return false
	}
	live := b.Sel
	if live == nil {
		for len(s.seq) < b.N {
			s.seq = append(s.seq, len(s.seq))
		}
		live = s.seq[:b.N]
	}
	s.sel = s.sel[:0]
	scaled := false
	for _, i := range live {
		t := s.truths[i]
		if !t.Hi {
			continue
		}
		if !t.Lo {
			m := b.MultAt(i)
			sm := m.Mul(core.TruthMult(t)) // by 0 or 1: it cannot overflow
			s.mult[i] = sm
			scaled = scaled || sm != m
		}
		s.sel = append(s.sel, i)
	}
	s.out = *b
	s.out.Sel = s.sel
	if scaled {
		for _, i := range s.sel {
			if s.truths[i].Lo {
				s.mult[i] = b.MultAt(i)
			}
		}
		s.out.MFlat, s.out.MDense = nil, s.mult[:b.N]
	}
	return true
}

// fallback densifies the batch and filters it with the per-row kernel,
// which reproduces the exact error (and error message) the reference
// executor reports.
func (s *selectIter) fallback(b *vec.Batch) error {
	s.dense = b.AppendTuples(s.dense[:0])
	if err := s.rowFilter(s.dense); err != nil {
		return err
	}
	s.out.SetRows(s.buf)
	return nil
}

// rowFilter runs the per-row selection kernel over rows into s.buf.
func (s *selectIter) rowFilter(rows []core.Tuple) error {
	s.buf = s.buf[:0]
	for _, t := range rows {
		if err := s.poll.Due(); err != nil {
			return err
		}
		ot, keep, err := core.FilterTuple(t, s.pred)
		if err != nil {
			return err
		}
		if keep {
			s.buf = append(s.buf, ot)
		}
	}
	return nil
}

func (s *selectIter) Close() error          { return s.child.Close() }
func (s *selectIter) Schema() schema.Schema { return s.sch }

// ------------------------------------------------------------- project --

// projectIter evaluates generalized projection per batch into reused
// buffers. Unlike the materializing kernel it does not merge value-
// equivalent outputs — with compression off, every operator above is
// insensitive to merge granularity and the final merge restores the
// canonical form, so results stay bit-identical (the compiler materializes
// Project whenever compression makes merge granularity observable).
//
// On a columnar batch, a bare attribute reference aliases the input
// column outright (a permutation costs nothing), and every other
// expression is evaluated by the range program (expr.CompileRange) a
// chunk at a time, into a lane whose values are a window of one reused
// flat buffer. When no live row is an exception the column leaves as that
// buffer, so a certain projection stays flat downstream; otherwise it is
// widened to triples.
//
// The multiplicities and the selection vector pass through untouched. When
// a program fails on the batch, or an expression is not compilable, the
// batch is densified and re-run through the canonical per-row kernel,
// surfacing the exact row-order error.
type projectIter struct {
	child iter
	cols  []ra.ProjCol
	sch   schema.Schema

	poll *ctxpoll.Poll
	buf  []core.Tuple
	out  vec.Batch

	planned bool
	alias   []int
	progs   []*expr.RangeProg
	vals    []projOut
	dense   []core.Tuple
}

// projOut is the reused output of one computed column: the values and
// exception marks of every row, the lane that writes a chunk of them, and
// the triples of a batch with a live exception.
type projOut struct {
	flat  []types.Value
	exc   []int32
	lane  expr.Lane
	dense []rangeval.V
}

func (p *projectIter) Open(ctx context.Context) error {
	p.poll = ctxpoll.New(ctx)
	if !p.planned {
		p.planned = true
		p.alias = make([]int, len(p.cols))
		p.progs = make([]*expr.RangeProg, len(p.cols))
		p.vals = make([]projOut, len(p.cols))
		for j, c := range p.cols {
			p.alias[j] = -1
			if a, ok := c.E.(expr.Attr); ok {
				p.alias[j] = a.Idx
				continue
			}
			p.progs[j], _ = expr.CompileRange(c.E)
		}
	}
	return p.child.Open(ctx)
}

func (p *projectIter) Next() (*vec.Batch, error) {
	b, err := p.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if !b.Columnar {
		if err := p.rowProject(b.Rows); err != nil {
			return nil, err
		}
		p.out.SetRows(p.buf)
		return &p.out, nil
	}
	if err := p.poll.Due(); err != nil {
		return nil, err
	}
	if err := p.columnar(b); err != nil {
		return nil, err
	}
	return &p.out, nil
}

// columnar projects one columnar batch into p.out, falling back to the
// canonical per-row kernel when a program fails or is missing.
func (p *projectIter) columnar(b *vec.Batch) error {
	p.out.Rows = nil
	p.out.Columnar = true
	if cap(p.out.Cols) < len(p.cols) {
		p.out.Cols = make([]rangeval.Col, len(p.cols))
	}
	p.out.Cols = p.out.Cols[:len(p.cols)]
	p.out.MFlat, p.out.MDense = b.MFlat, b.MDense
	p.out.N, p.out.Sel = b.N, b.Sel

	for j := range p.cols {
		if a := p.alias[j]; a >= 0 && a < len(b.Cols) {
			p.out.Cols[j] = b.Cols[a]
			continue
		}
		if p.progs[j] == nil || !p.eval(j, b) {
			return p.fallback(b)
		}
	}
	return nil
}

// eval evaluates computed column j over the live rows of b into
// p.out.Cols[j], a chunk at a time, reporting false when the program
// fails. Each chunk's lane writes its values into a window of the
// column's flat buffer, so a batch with no live exception leaves flat.
// From the first chunk with one, the column is widened to triples.
func (p *projectIter) eval(j int, b *vec.Batch) bool {
	o := &p.vals[j]
	if len(o.flat) < b.N {
		o.flat, o.exc = make([]types.Value, b.N), make([]int32, b.N)
	}
	l, widened := &o.lane, false
	for lo, k := 0, 0; lo < b.N; lo += expr.RangeChunk {
		hi := min(lo+expr.RangeChunk, b.N)
		live := b.Sel
		if live != nil {
			first := k
			for k < len(b.Sel) && b.Sel[k] < hi {
				k++
			}
			if live = b.Sel[first:k]; len(live) == 0 {
				continue
			}
		}
		l.SG, l.Exc = o.flat[lo:hi:hi], o.exc[lo:hi:hi]
		if p.progs[j].EvalLane(b.Cols, lo, hi, live, l) != nil {
			return false
		}
		if !widened {
			if len(l.Tri) == 0 || !liveException(l, live, lo, hi) {
				continue
			}
			// The rows before are points; a dead row's value is never read.
			if len(o.dense) < b.N {
				o.dense = make([]rangeval.V, b.N)
			}
			for i, v := range o.flat[:lo] {
				o.dense[i] = rangeval.Certain(v)
			}
			widened = true
		}
		if live == nil {
			for i := lo; i < hi; i++ {
				o.dense[i] = l.At(i - lo)
			}
			continue
		}
		for _, i := range live {
			o.dense[i] = l.At(i - lo)
		}
	}
	if widened {
		p.out.Cols[j] = rangeval.ColFromDense(o.dense[:b.N])
	} else {
		p.out.Cols[j] = rangeval.ColFromFlat(o.flat[:b.N])
	}
	return true
}

// liveException reports whether a live row of the lane of rows [lo, hi)
// is an exception. live is as for EvalLane: nil when every row is live.
func liveException(l *expr.Lane, live []int, lo, hi int) bool {
	if live == nil {
		for _, e := range l.Exc[:hi-lo] {
			if e >= 0 {
				return true
			}
		}
		return false
	}
	for _, i := range live {
		if l.Exc[i-lo] >= 0 {
			return true
		}
	}
	return false
}

// fallback densifies the batch and re-runs the canonical per-row kernel,
// reproducing the exact error (and error message) the reference executor
// reports. It is only reached on evaluation errors, which abort the query.
func (p *projectIter) fallback(b *vec.Batch) error {
	p.dense = b.AppendTuples(p.dense[:0])
	if err := p.rowProject(p.dense); err != nil {
		return err
	}
	p.out.SetRows(p.buf)
	return nil
}

// rowProject runs the per-row projection kernel over rows into p.buf.
func (p *projectIter) rowProject(rows []core.Tuple) error {
	p.buf = p.buf[:0]
	for _, t := range rows {
		if err := p.poll.Due(); err != nil {
			return err
		}
		ot, err := core.ProjectTuple(t, p.cols)
		if err != nil {
			return err
		}
		p.buf = append(p.buf, ot)
	}
	return nil
}

func (p *projectIter) Close() error          { return p.child.Close() }
func (p *projectIter) Schema() schema.Schema { return p.sch }

// --------------------------------------------------------------- union --

// unionIter concatenates two streams (bag union adds annotations; the
// summing of value-equivalent tuples happens at the next merge point, as
// for projectIter). Batches of either representation pass through
// untouched.
type unionIter struct {
	left, right iter
	sch         schema.Schema
	onRight     bool
}

func (u *unionIter) Open(ctx context.Context) error {
	u.onRight = false
	if err := u.left.Open(ctx); err != nil {
		return err
	}
	return u.right.Open(ctx)
}

func (u *unionIter) Next() (*vec.Batch, error) {
	if !u.onRight {
		b, err := u.left.Next()
		if err != nil || b != nil {
			return b, err
		}
		u.onRight = true
	}
	return u.right.Next()
}

func (u *unionIter) Close() error {
	err := u.left.Close()
	if rerr := u.right.Close(); err == nil {
		err = rerr
	}
	return err
}
func (u *unionIter) Schema() schema.Schema { return u.sch }

// --------------------------------------------------------------- limit --

// limitIter is the streaming LIMIT: it emits the first n merged rows with
// O(n) state instead of materializing and merging the whole input. Tuples
// value-equivalent to a kept row keep folding their annotations in (LIMIT
// applies to merged rows, so the whole input is consumed — bit-identical to
// merge-then-truncate), while tuples introducing a new value beyond the
// first n are discarded immediately: they can never enter the result.
// Columnar batches are probed through batched per-row key building
// (vec.Batch.AppendRowKey, byte-identical to the dense encoding, so one
// probe map serves both representations) and only the ≤ n kept rows are
// ever gathered into tuples.
type limitIter struct {
	child iter
	n     int
	sch   schema.Schema
	batch int

	poll    *ctxpoll.Poll
	rows    []core.Tuple
	idx     map[string]int
	scratch []byte
	done    bool
	pos     int
	out     vec.Batch
}

func (l *limitIter) Open(ctx context.Context) error {
	l.poll = ctxpoll.New(ctx)
	// Cap the size hint: n is user-controlled (LIMIT 2e9 must not
	// pre-allocate gigabytes of map buckets for a tiny input) and the map
	// grows on demand anyway.
	hint := l.n
	if hint < 0 {
		hint = 0
	}
	if hint > l.batch {
		hint = l.batch
	}
	l.idx = make(map[string]int, hint)
	return l.child.Open(ctx)
}

func (l *limitIter) Next() (*vec.Batch, error) {
	if !l.done {
		for {
			b, err := l.child.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			if err := l.consume(b); err != nil {
				return nil, err
			}
		}
		l.done = true
		l.idx = nil
	}
	if l.pos >= len(l.rows) {
		return nil, nil
	}
	end := l.pos + l.batch
	if end > len(l.rows) {
		end = len(l.rows)
	}
	l.out.SetRows(l.rows[l.pos:end])
	l.pos = end
	return &l.out, nil
}

// consume folds one batch into the first-n state.
func (l *limitIter) consume(b *vec.Batch) error {
	if !b.Columnar {
		for _, t := range b.Rows {
			if err := l.poll.Due(); err != nil {
				return err
			}
			// Probe with the scratch buffer (no allocation); the key
			// string is only materialized for rows actually kept.
			l.scratch = t.Vals.AppendKey(l.scratch[:0])
			if j, ok := l.idx[string(l.scratch)]; ok {
				m, err := l.rows[j].M.AddChecked(t.M)
				if err != nil {
					return err
				}
				l.rows[j].M = m
				continue
			}
			if len(l.rows) < l.n {
				l.idx[string(l.scratch)] = len(l.rows)
				l.rows = append(l.rows, t)
			}
		}
		return nil
	}
	take := func(i int) error {
		if err := l.poll.Due(); err != nil {
			return err
		}
		l.scratch = b.AppendRowKey(l.scratch[:0], i)
		if j, ok := l.idx[string(l.scratch)]; ok {
			m, err := l.rows[j].M.AddChecked(b.MultAt(i))
			if err != nil {
				return err
			}
			l.rows[j].M = m
			return nil
		}
		if len(l.rows) < l.n {
			l.idx[string(l.scratch)] = len(l.rows)
			// Gather-copy: the batch's columns are reused, kept rows
			// must own their values.
			vals := b.AppendRow(make(rangeval.Tuple, 0, len(b.Cols)), i)
			l.rows = append(l.rows, core.Tuple{Vals: vals, M: b.MultAt(i)})
		}
		return nil
	}
	return b.EachLive(take)
}

func (l *limitIter) Close() error          { return l.child.Close() }
func (l *limitIter) Schema() schema.Schema { return l.sch }

// --------------------------------------------------------------- top-k --

// topkIter fuses LIMIT n over ORDER BY into a bounded selection: instead of
// sorting and merging the full input it keeps at most n candidate merged
// rows in a max-heap ordered by (sort key, first-occurrence position) — the
// exact order merged rows take in the stable-sorted stream, since value-
// equivalent tuples share their sort key and the merged row sits at its
// first occurrence. A new value that orders after the current n-th
// candidate can never enter the result (candidate ranks only worsen as the
// stream continues) and is discarded with O(1) work; duplicates of kept
// candidates keep folding their annotations. Peak memory is O(n), not
// O(input), and the result is bit-identical to sort + merge + truncate.
// Columnar rows are gathered into a reused scratch for the rank check and
// copied only when actually kept.
type topkIter struct {
	child iter
	keys  []int
	desc  bool
	n     int
	sch   schema.Schema
	batch int

	poll    *ctxpoll.Poll
	h       topkHeap
	idx     map[string]*topkEntry
	scratch []byte
	row     rangeval.Tuple
	outRows []core.Tuple
	done    bool
	pos     int
	out     vec.Batch
}

// topkEntry is one candidate merged row.
type topkEntry struct {
	tup core.Tuple
	key string
	seq int // first-occurrence position in the input stream
}

// topkHeap is a max-heap over the output order: the root is the candidate
// that orders last, i.e. the one evicted when a better row arrives.
type topkHeap struct {
	es   []*topkEntry
	keys []int
	desc bool
}

// after reports whether a orders after b in the final output.
func (h *topkHeap) after(a, b *topkEntry) bool {
	if c := core.OrderCompare(a.tup.Vals, b.tup.Vals, h.keys, h.desc); c != 0 {
		return c > 0
	}
	return a.seq > b.seq
}

func (h *topkHeap) Len() int           { return len(h.es) }
func (h *topkHeap) Less(i, j int) bool { return h.after(h.es[i], h.es[j]) }
func (h *topkHeap) Swap(i, j int)      { h.es[i], h.es[j] = h.es[j], h.es[i] }
func (h *topkHeap) Push(x any)         { h.es = append(h.es, x.(*topkEntry)) }
func (h *topkHeap) Pop() any {
	e := h.es[len(h.es)-1]
	h.es = h.es[:len(h.es)-1]
	return e
}

func (t *topkIter) Open(ctx context.Context) error {
	t.poll = ctxpoll.New(ctx)
	t.h = topkHeap{keys: t.keys, desc: t.desc}
	t.idx = make(map[string]*topkEntry)
	return t.child.Open(ctx)
}

func (t *topkIter) Next() (*vec.Batch, error) {
	if !t.done {
		if err := t.consume(); err != nil {
			return nil, err
		}
	}
	if t.pos >= len(t.outRows) {
		return nil, nil
	}
	end := t.pos + t.batch
	if end > len(t.outRows) {
		end = len(t.outRows)
	}
	t.out.SetRows(t.outRows[t.pos:end])
	t.pos = end
	return &t.out, nil
}

func (t *topkIter) consume() error {
	seq := 0
	for {
		b, err := t.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if !b.Columnar {
			for _, tup := range b.Rows {
				if err := t.offer(tup, false, seq); err != nil {
					return err
				}
				seq++
			}
			continue
		}
		offer := func(i int) error {
			// Gather into the reused scratch row; offer copies it only
			// when the candidate is actually kept.
			t.row = b.AppendRow(t.row[:0], i)
			err := t.offer(core.Tuple{Vals: t.row, M: b.MultAt(i)}, true, seq)
			seq++
			return err
		}
		if err := b.EachLive(offer); err != nil {
			return err
		}
	}
	es := t.h.es
	sort.Slice(es, func(i, j int) bool { return t.h.after(es[j], es[i]) })
	t.outRows = make([]core.Tuple, len(es))
	for i, e := range es {
		t.outRows[i] = e.tup
	}
	t.done = true
	t.h.es, t.idx = nil, nil
	return nil
}

// offer folds one row into the top-k state. When copyVals is set the
// tuple's Vals is a reused scratch and must be copied if kept.
func (t *topkIter) offer(tup core.Tuple, copyVals bool, i int) error {
	if err := t.poll.Due(); err != nil {
		return err
	}
	// Probe with the scratch buffer (no allocation); keys and entries are
	// only materialized for kept candidates, so a discarded tuple costs
	// O(1) with zero allocations.
	t.scratch = tup.Vals.AppendKey(t.scratch[:0])
	if e, ok := t.idx[string(t.scratch)]; ok {
		m, err := e.tup.M.AddChecked(tup.M)
		if err != nil {
			return err
		}
		e.tup.M = m
		return nil
	}
	if t.n <= 0 {
		return nil
	}
	if len(t.h.es) >= t.n {
		worst := t.h.es[0]
		if c := core.OrderCompare(worst.tup.Vals, tup.Vals, t.keys, t.desc); c < 0 || (c == 0 && worst.seq < i) {
			// The new value orders at or after every kept candidate and,
			// since ranks only worsen, can never enter the first n merged
			// rows: discard.
			return nil
		}
		heap.Pop(&t.h)
		delete(t.idx, worst.key)
	}
	if copyVals {
		tup.Vals = append(rangeval.Tuple(nil), tup.Vals...)
	}
	e := &topkEntry{tup: tup, key: string(t.scratch), seq: i}
	heap.Push(&t.h, e)
	t.idx[e.key] = e
	return nil
}

func (t *topkIter) Close() error          { return t.child.Close() }
func (t *topkIter) Schema() schema.Schema { return t.sch }
