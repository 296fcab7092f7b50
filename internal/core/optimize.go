package core

import (
	"context"
	"sort"

	"github.com/audb/audb/internal/ctxpoll"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/types"
)

// Split implements the split operator of Section 10.4. It decomposes R into
//
//   - split_sg(R): the selected-guess content with all attribute-level
//     uncertainty removed. Each tuple keeps only its SG values; its SG and
//     upper annotations become the SG multiplicity, and its lower
//     annotation survives only if the tuple was attribute-certain.
//   - split↑(R): the over-approximation of possible content. Tuples keep
//     their ranges; annotations become (0, 0, hi).
//
// Lemma 6: split_sg(R) ∪ split↑(R) bounds whatever R bounds, and encodes
// the same selected-guess world.
func Split(r *Relation) (sg, up *Relation) {
	// The background context is never cancelled, so splitN cannot fail.
	sg, up, _ = splitN(context.Background(), r, 1)
	return sg, up
}

// splitN is Split with chunked parallel evaluation: workers build partial
// split_sg relations over contiguous tuple ranges which are merged in chunk
// order, reproducing the serial first-seen tuple order and (commutative)
// annotation sums exactly.
func splitN(ctx context.Context, r *Relation, workers int) (sg, up *Relation, err error) {
	spans := ChunkSpans(len(r.Tuples), workers, minParTuples)
	parts := make([]*Relation, len(spans))
	upBufs := make([][]Tuple, len(spans))
	if err := runSpans(ctx, spans, func(c int, s Span, p *ctxpoll.Poll) error {
		var err error
		parts[c], err = splitSGRange(r, s.Lo, s.Hi, p)
		if err != nil {
			return err
		}
		buf := make([]Tuple, 0, s.Hi-s.Lo)
		for _, t := range r.Tuples[s.Lo:s.Hi] {
			if err := p.Due(); err != nil {
				return err
			}
			if t.M.Hi > 0 {
				buf = append(buf, Tuple{Vals: t.Vals, M: Mult{0, 0, t.M.Hi}})
			}
		}
		upBufs[c] = buf
		return nil
	}); err != nil {
		return nil, nil, err
	}

	sg = New(r.Schema)
	merge := ctxpoll.New(ctx)
	if len(parts) > 0 {
		sg = parts[0]
		idx := make(map[string]int, len(sg.Tuples))
		for j, t := range sg.Tuples {
			if err := merge.Due(); err != nil {
				return nil, nil, err
			}
			idx[t.Vals.SGKey()] = j
		}
		for _, part := range parts[1:] {
			for _, t := range part.Tuples {
				if err := merge.Due(); err != nil {
					return nil, nil, err
				}
				k := t.Vals.SGKey()
				if j, ok := idx[k]; ok {
					m, err := sg.Tuples[j].M.AddChecked(t.M)
					if err != nil {
						return nil, nil, err
					}
					sg.Tuples[j].M = m
					continue
				}
				idx[k] = len(sg.Tuples)
				sg.Tuples = append(sg.Tuples, t)
			}
		}
	}
	// Normalize: lower bounds may not exceed SG counts after merging.
	kept := sg.Tuples[:0]
	for _, t := range sg.Tuples {
		if err := merge.Due(); err != nil {
			return nil, nil, err
		}
		if t.M.Lo > t.M.SG {
			t.M.Lo = t.M.SG
		}
		if t.M.Hi > 0 {
			kept = append(kept, t)
		}
	}
	sg.Tuples = kept

	up = New(r.Schema)
	up.Tuples = concatTuples(upBufs)
	return sg, up, nil
}

// splitSGRange builds the split_sg contribution of tuples [lo, hi). Tuples
// that are certainly absent everywhere (SG and lower bound both zero)
// create no entry, matching the serial construction; merged entries sum
// annotations.
func splitSGRange(r *Relation, lo, hi int, p *ctxpoll.Poll) (*Relation, error) {
	sg := New(r.Schema)
	idx := map[string]int{}
	for _, t := range r.Tuples[lo:hi] {
		if err := p.Due(); err != nil {
			return nil, err
		}
		cert := make(rangeval.Tuple, len(t.Vals))
		for i, v := range t.Vals {
			cert[i] = rangeval.Certain(v.SG)
		}
		mLo := int64(0)
		if t.Vals.IsCertain() {
			mLo = t.M.Lo
		}
		k := cert.SGKey()
		if j, ok := idx[k]; ok {
			m, err := sg.Tuples[j].M.AddChecked(Mult{mLo, t.M.SG, t.M.SG})
			if err != nil {
				return nil, err
			}
			sg.Tuples[j].M = m
			continue
		}
		if t.M.SG <= 0 && mLo <= 0 {
			continue
		}
		idx[k] = len(sg.Tuples)
		sg.Tuples = append(sg.Tuples, Tuple{Vals: cert, M: Mult{mLo, t.M.SG, t.M.SG}})
	}
	return sg, nil
}

// Compress implements Cpr_{A,n} (Section 10.4): group tuples into at most n
// buckets by attribute attr (equi-depth over observed lower endpoints) and
// merge each bucket into one tuple whose attribute ranges are the bucket's
// minimum bounding box and whose annotation is (0, 0, Σ hi).
// Lemma 7: compression preserves bounds.
func Compress(r *Relation, attr, n int) *Relation {
	return CompressWithBoundaries(r, attr, boundariesOf(r, attr, n))
}

// boundariesOf computes up to n-1 equi-depth split points over the lower
// endpoints of attribute attr.
func boundariesOf(r *Relation, attr, n int) []types.Value {
	if n <= 1 || len(r.Tuples) == 0 {
		return nil
	}
	vals := make([]types.Value, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		vals = append(vals, t.Vals[attr].Lo)
	}
	sort.Slice(vals, func(i, j int) bool { return types.Less(vals[i], vals[j]) })
	if n > len(vals)+1 {
		// From len+1 buckets on, i*len/n already visits every index, so a
		// larger target yields the same points; clamping keeps a huge
		// target (it arrives over the wire) from looping without a poll.
		n = len(vals) + 1
	}
	var bounds []types.Value
	for i := 1; i < n; i++ {
		j := i * len(vals) / n
		if j >= len(vals) {
			break
		}
		v := vals[j]
		if len(bounds) == 0 || types.Less(bounds[len(bounds)-1], v) {
			bounds = append(bounds, v)
		}
	}
	return bounds
}

// sharedBoundaries computes equi-depth boundaries over the union of both
// inputs' attribute endpoints so that equi-join partners land in aligned
// buckets.
func sharedBoundaries(l *Relation, la int, r *Relation, ra, n int) []types.Value {
	merged := New(l.Schema)
	for _, t := range l.Tuples {
		merged.Tuples = append(merged.Tuples, Tuple{Vals: rangeval.Tuple{t.Vals[la]}, M: t.M})
	}
	for _, t := range r.Tuples {
		merged.Tuples = append(merged.Tuples, Tuple{Vals: rangeval.Tuple{t.Vals[ra]}, M: t.M})
	}
	return boundariesOf(merged, 0, n)
}

// CompressWithBoundaries buckets tuples of r by attribute attr against the
// given ascending split points (tuple assigned by its lower endpoint) and
// merges each bucket.
func CompressWithBoundaries(r *Relation, attr int, bounds []types.Value) *Relation {
	out := New(r.Schema)
	if len(r.Tuples) == 0 {
		return out
	}
	bucketOf := func(v types.Value) int {
		// First bucket whose boundary exceeds v; sort.Search over bounds.
		return sort.Search(len(bounds), func(i int) bool { return types.Less(v, bounds[i]) })
	}
	acc := map[int]*Tuple{}
	var order []int
	for _, t := range r.Tuples {
		b := bucketOf(t.Vals[attr].Lo)
		if cur, ok := acc[b]; ok {
			cur.Vals = cur.Vals.Union(t.Vals)
			cur.M.Hi = addHi(cur.M.Hi, t.M.Hi)
			continue
		}
		cp := t.Clone()
		cp.M = Mult{0, 0, t.M.Hi}
		acc[b] = &cp
		order = append(order, b)
	}
	sort.Ints(order)
	for _, b := range order {
		out.Add(*acc[b])
	}
	return out
}
