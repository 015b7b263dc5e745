package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestLRUBasic(t *testing.T) {
	c := newLRUCache(2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Add("a", []byte("1"))
	c.Add("b", []byte("2"))
	if v, ok := c.Get("a"); !ok || !bytes.Equal(v, []byte("1")) {
		t.Fatalf("a = %q, %v", v, ok)
	}
	// "b" is now least recently used and must be the one evicted.
	c.Add("c", []byte("3"))
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted despite recent use")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c missing")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := newLRUCache(2)
	c.Add("a", []byte("1"))
	c.Add("a", []byte("2"))
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	if v, _ := c.Get("a"); !bytes.Equal(v, []byte("2")) {
		t.Errorf("a = %q, want 2", v)
	}
}

// TestLRUDisabled is the regression test for the nonpositive-max bug:
// newLRUCache(0) used to insert each entry and then immediately evict it
// (Len() > max holds for any insertion), so every request missed and
// churned the singleflight group. A nonpositive max must mean
// "explicitly disabled": store nothing, never panic.
func TestLRUDisabled(t *testing.T) {
	for _, max := range []int{0, -1} {
		c := newLRUCache(max)
		c.Add("a", []byte("1"))
		if _, ok := c.Get("a"); ok {
			t.Errorf("max=%d: disabled cache returned a hit", max)
		}
		if c.Len() != 0 {
			t.Errorf("max=%d: disabled cache holds %d entries", max, c.Len())
		}
		// Repeated adds must stay no-ops, not accumulate or evict-churn.
		c.Add("a", []byte("2"))
		c.Add("b", []byte("3"))
		if c.Len() != 0 {
			t.Errorf("max=%d: disabled cache grew to %d entries", max, c.Len())
		}
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := newLRUCache(8)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			key := string(rune('a' + g))
			for i := 0; i < 1000; i++ {
				c.Add(key, []byte{byte(i)})
				c.Get(key)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

// TestCachedBodiesExactSize checks the LRU keeps exact-size bodies —
// cap == len, so no encoder buffer stays pinned behind an entry — and
// that trimming changes no byte: every golden request still returns its
// golden body, on the miss that fills the cache and on the hit after.
func TestCachedBodiesExactSize(t *testing.T) {
	c := newLRUCache(2)
	padded := make([]byte, 3, 64)
	copy(padded, "abc")
	c.Add("k", padded)
	if v, _ := c.Get("k"); cap(v) != len(v) || string(v) != "abc" {
		t.Fatalf("cached %q with len %d cap %d", v, len(v), cap(v))
	}

	srv, ts := newTestServer(t, Config{})
	for _, tc := range goldenCases {
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		for _, state := range []string{"miss", "hit"} {
			resp, data := post(t, ts.URL+tc.path, tc.body)
			if got := resp.Header.Get("X-Cache"); got != state {
				t.Fatalf("%s: X-Cache %q, want %q", tc.file, got, state)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("%s (%s): body diverged from golden", tc.file, state)
			}
		}
	}
	srv.cache.mu.Lock()
	defer srv.cache.mu.Unlock()
	if len(srv.cache.items) != len(goldenCases) {
		t.Fatalf("cache holds %d entries, want %d", len(srv.cache.items), len(goldenCases))
	}
	for key, el := range srv.cache.items {
		if v := el.Value.(*lruEntry).val; cap(v) != len(v) {
			t.Errorf("%s: cached body len %d cap %d", key, len(v), cap(v))
		}
	}
}
