package memmodel

import (
	"testing"
	"testing/quick"
)

func sampleTable() *OrderTable {
	return NewOrderTable(
		Site{Name: "load_a", Class: OpLoad, Default: Acquire},
		Site{Name: "store_b", Class: OpStore, Default: Release},
		Site{Name: "rmw_c", Class: OpRMW, Default: SeqCst},
		Site{Name: "relaxed_d", Class: OpLoad, Default: Relaxed},
	)
}

func TestOrderTableGetSet(t *testing.T) {
	tb := sampleTable()
	if tb.Get("load_a") != Acquire {
		t.Errorf("Get = %v, want acquire", tb.Get("load_a"))
	}
	tb.Set("load_a", Relaxed)
	if tb.Get("load_a") != Relaxed {
		t.Error("Set did not take effect")
	}
}

func TestOrderTableUnknownSitePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Get of unknown site should panic")
		}
	}()
	sampleTable().Get("nope")
}

func TestOrderTableDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate site should panic")
		}
	}()
	NewOrderTable(
		Site{Name: "x", Class: OpLoad, Default: Acquire},
		Site{Name: "x", Class: OpStore, Default: Release},
	)
}

func TestOrderTableCloneIndependence(t *testing.T) {
	tb := sampleTable()
	c := tb.Clone()
	c.Set("load_a", Relaxed)
	if tb.Get("load_a") != Acquire {
		t.Error("Clone is not independent")
	}
}

func TestOrderTableSitesSorted(t *testing.T) {
	sites := sampleTable().Sites()
	for i := 1; i < len(sites); i++ {
		if sites[i-1].Name >= sites[i].Name {
			t.Fatalf("Sites not sorted: %v", sites)
		}
	}
}

func TestWeakenSite(t *testing.T) {
	tb := sampleTable()
	if !tb.WeakenSite("rmw_c") || tb.Get("rmw_c") != AcqRel {
		t.Errorf("WeakenSite rmw: got %v", tb.Get("rmw_c"))
	}
	if tb.WeakenSite("relaxed_d") {
		t.Error("relaxed site should not weaken")
	}
}

// TestWeakenings: one table per weakenable site, each differing from the
// defaults in exactly that site by exactly one ladder step.
func TestWeakenings(t *testing.T) {
	tb := sampleTable()
	ws := tb.Weakenings()
	if len(ws) != 3 { // relaxed_d is terminal
		t.Fatalf("expected 3 weakenings, got %d", len(ws))
	}
	for _, w := range ws {
		diffs := 0
		for _, s := range tb.Sites() {
			if w.Get(s.Name) != s.Default {
				diffs++
				want, ok := Weaken(s.Class, s.Default)
				if !ok || w.Get(s.Name) != want {
					t.Errorf("site %s weakened to %v, want %v", s.Name, w.Get(s.Name), want)
				}
			}
		}
		if diffs != 1 {
			t.Errorf("weakening changed %d sites, want exactly 1", diffs)
		}
	}
}

// TestWeakeningsProperty (property): for any well-formed table, every
// weakening differs from defaults in exactly one site.
func TestWeakeningsProperty(t *testing.T) {
	f := func(classes []uint8) bool {
		if len(classes) > 6 {
			classes = classes[:6]
		}
		var sites []Site
		for i, c := range classes {
			sites = append(sites, Site{
				Name:    string(rune('a' + i)),
				Class:   OpClass(c % 4),
				Default: MemOrder(c % 6),
			})
		}
		tb := NewOrderTable(sites...)
		for _, w := range tb.Weakenings() {
			diffs := 0
			for _, s := range sites {
				if w.Get(s.Name) != s.Default {
					diffs++
				}
			}
			if diffs != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSiteLookup(t *testing.T) {
	tb := sampleTable()
	if s, ok := tb.Site("store_b"); !ok || s.Class != OpStore {
		t.Errorf("Site lookup failed: %v %v", s, ok)
	}
	if _, ok := tb.Site("nope"); ok {
		t.Error("Site lookup of unknown name succeeded")
	}
}

// TestOrderTableIntern: interning a table's own declaration shares its
// order storage (a later Set is visible); any other site list resolves
// by name into a copy, and an unknown site panics as in Get.
func TestOrderTableIntern(t *testing.T) {
	tb := sampleTable()
	shared := tb.Intern(tb.Declared())
	copied := tb.Intern(tb.Sites())
	tb.Set("load_a", Relaxed)
	if shared[0] != Relaxed {
		t.Errorf("shared interned order = %v, want the later Set's relaxed", shared[0])
	}
	for i, s := range tb.Sites() {
		if s.Name == "load_a" {
			if copied[i] != Acquire {
				t.Errorf("copied interned order = %v, want the acquire it was resolved at", copied[i])
			}
		} else if copied[i] != tb.Get(s.Name) {
			t.Errorf("copied %s = %v, Get = %v", s.Name, copied[i], tb.Get(s.Name))
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intern of an unknown site should panic")
		}
	}()
	tb.Intern([]Site{{Name: "nope"}})
}
