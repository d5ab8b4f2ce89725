package main

import (
	"fmt"
	"hash/maphash"
	"runtime"
)

// verdict is the outcome of checking every answer of a run.
type verdict struct {
	ops        int // answers received (unary 200 documents, campaign result lines)
	attempted  int
	errs       int // transport errors, non-200 answers, broken campaign streams
	mismatched int // answers that differ from the oracle's document
	degraded   int // answers tagged below exact quality
	relayed    int
	msgs       []string
}

func (v *verdict) failed() int { return v.errs + v.mismatched }

func (v *verdict) mismatch(n int, format string, args ...any) {
	v.mismatched += n
	if len(v.msgs) < 10 {
		v.msgs = append(v.msgs, fmt.Sprintf(format, args...))
	}
}

// verifyRun checks the logged answers against the oracle, after the
// timed window. It also returns the work fingerprint of the stream
// prefix, which the oracle computes whether or not the run reached it.
func verifyRun(in *inputs, or *oracle, logs []*clientLog, prefix []int) (verdict, work, error) {
	var v verdict
	need := map[*query]bool{}
	var qs []*query
	add := func(qi int) {
		if q := in.queries[qi]; !need[q] {
			need[q] = true
			qs = append(qs, q)
		}
	}
	for _, qi := range prefix {
		add(qi)
	}
	for _, l := range logs {
		for k := range l.docs {
			add(k.q)
		}
		for _, rec := range l.lines {
			add(rec.q)
		}
	}
	if err := or.prepare(qs, runtime.NumCPU()); err != nil {
		return v, work{}, err
	}

	var fp work
	seen := map[*query]bool{}
	for _, qi := range prefix {
		if q := in.queries[qi]; !seen[q] {
			seen[q] = true
			fp.add(or.get(q).work)
		}
	}

	for _, l := range logs {
		v.ops += len(l.latMS)
		v.attempted += l.attempts
		v.errs += l.errs
		v.relayed += l.relayed
		for _, m := range l.errMsgs {
			if len(v.msgs) < 10 {
				v.msgs = append(v.msgs, m)
			}
		}
		for k, n := range l.docs {
			q := in.queries[k.q]
			e := or.get(q)
			switch {
			case maphash.Bytes(docSeed, e.prefix) == k.sum:
				if e.degraded {
					v.degraded += n
				}
			case k.timeBudget:
				v.degraded += n
			default:
				v.mismatch(n, "%s %s: answer differs from the library's document\nwant: %.300s", q.Kind, q.Chain, e.prefix)
			}
		}
		for kind, tails := range l.tails {
			for tail, n := range tails {
				if err := checkTail(kind, []byte(tail)); err != nil {
					v.mismatch(n, "%s: %v", kind, err)
				}
			}
		}
		for _, rec := range l.lines {
			q := in.queries[rec.q]
			e := or.get(q)
			want, err := expectedLine(q, e, rec.index, rec.cache)
			if err != nil {
				return v, fp, err
			}
			switch {
			case maphash.Bytes(docSeed, want) == rec.sum && storeOutcomes[rec.cache]:
				if e.degraded {
					v.degraded++
				}
			case rec.timeBudget:
				v.degraded++
			default:
				v.mismatch(1, "campaign line %d of a batch differs from the library's document\nwant: %.300s", rec.index, want)
			}
		}
	}
	v.mismatched = min(v.mismatched, v.ops)
	return v, fp, nil
}
