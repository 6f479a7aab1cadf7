package stream

import "testing"

func TestPoolCounters(t *testing.T) {
	type scratch struct{ buf []float64 }
	p := NewPool("test.scratch", func() *scratch { return &scratch{} })
	a := p.Get()
	p.Put(a)
	b := p.Get()
	p.Put(b)
	st := p.stat()
	if st.Gets != 2 || st.Puts != 2 {
		t.Fatalf("gets/puts = %d/%d, want 2/2", st.Gets, st.Puts)
	}
	if st.News == 0 || st.News > st.Gets {
		t.Fatalf("news = %d, want in [1, %d]", st.News, st.Gets)
	}
	// The registry surfaces the pool under its name.
	found := false
	for _, s := range Stats() {
		if s.Name == "test.scratch" {
			found = true
			if s.Gets != 2 {
				t.Fatalf("registry snapshot gets = %d, want 2", s.Gets)
			}
		}
	}
	if !found {
		t.Fatal("pool missing from Stats()")
	}
}
