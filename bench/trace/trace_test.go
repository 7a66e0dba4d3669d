package trace

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeArithmetic(t *testing.T) {
	// root 0..100; two overlapping children 10..40 and 30..60 (union 50), a
	// nested grandchild, and a child running past its parent (clipped).
	spans := []Span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 2, Name: "a.inner", Start: 15, End: 25},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 120},
		{ID: 6, Parent: 3, Name: "b.contained", Start: 35, End: 36},
		{ID: 7, Parent: 3, Name: "b.contained2", Start: 35, End: 50},
	}
	want := []int64{100 - 50 - 10, 30 - 10, 30 - 15, 10, 30, 1, 15}
	got := Self(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestStartLinksParentsAndIsFreeWithoutRequest(t *testing.T) {
	ctx, end := Start(context.Background(), "ignored")
	end()
	if ctx != context.Background() {
		t.Fatal("Start without a Request must return ctx unchanged")
	}
	r := NewRequest(7, time.Now())
	root, endRoot := Start(r.Context(context.Background()), "root")
	child, endChild := Start(root, "child")
	_, endLeaf := Start(child, "leaf")
	endLeaf()
	endChild()
	_, endSibling := Start(root, "sibling")
	endSibling()
	endRoot()
	spans := r.Spans()
	parents := map[string]uint32{}
	for _, s := range spans {
		parents[s.Name] = s.Parent
		if s.Req != 7 || s.End < s.Start {
			t.Errorf("bad span %+v", s)
		}
	}
	if parents["root"] != 0 || parents["child"] != 1 || parents["leaf"] != 2 || parents["sibling"] != 1 {
		t.Errorf("parents = %v", parents)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != len(spans) {
		t.Errorf("%d lines for %d spans", n, len(spans))
	}
}
