//go:build !race

// The race runtime randomly drops sync.Pool puts, which makes
// allocation counts non-deterministic; the gate runs without it.

package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// maxWarmHitAllocs bounds the allocations of one store hit through the
// handler, request and recorder included: the measured maximum (41, a
// sensitivity hit, whose case-study answer is not exact and so is
// encoded afresh) plus 10%. A warm hit resolves its body from the
// request memo and writes the stored document; a regression that
// decodes the request or encodes the document again fails the gate,
// one that re-parses the system costs hundreds.
const maxWarmHitAllocs = 45

// TestWarmHitAllocs is the allocation gate of the warm path: a store
// hit of every analysis endpoint, each in JSON and DSL form.
func TestWarmHitAllocs(t *testing.T) {
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	for _, q := range memoQueries {
		for _, form := range systemForms(t) {
			if form.name == "json-indented" {
				continue
			}
			body := form.body(q.req)
			serve := func() int {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, q.path, bytes.NewReader(body)))
				return rec.Code
			}
			if code := serve(); code != http.StatusOK {
				t.Fatalf("%s/%s warm-up answered %d", q.kind, form.name, code)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if code := serve(); code != http.StatusOK {
					t.Fatalf("%s/%s answered %d", q.kind, form.name, code)
				}
			})
			t.Logf("%s/%s: %.0f allocs per hit", q.kind, form.name, allocs)
			if allocs > maxWarmHitAllocs {
				t.Errorf("%s/%s: %.0f allocs per hit, ceiling %d", q.kind, form.name, allocs, maxWarmHitAllocs)
			}
		}
	}
}
