package harness

import (
	"testing"

	"repro/internal/memmodel"
)

// TestInternedOrdersMatchTable: a structure resolves its memory-order
// sites once, when it is built, with OrderTable.Intern over its own site
// declaration, and its atomic operations index the result. For every
// benchmark's default table and every Figure 8 weakening of it, the
// interned orders must equal OrderTable.Get site by site — both on the
// shared-storage path a structure takes (its own declaration) and on the
// by-name path of any other site list — and a later Set must stay
// visible through an earlier Intern, as it is through Get. Site names
// keep their meaning: every UndetectableSites key is a declared site.
func TestInternedOrdersMatchTable(t *testing.T) {
	for _, b := range Benchmarks() {
		def := b.Orders()
		decl := def.Declared()
		if len(decl) == 0 {
			t.Fatalf("%s: empty site declaration", b.Name)
		}
		tables := append([]*memmodel.OrderTable{def}, def.Weakenings()...)
		for i, tbl := range tables {
			if d := tbl.Declared(); len(d) != len(decl) || &d[0] != &decl[0] {
				t.Fatalf("%s table %d does not share the structure's declaration", b.Name, i)
			}
			for _, sites := range [][]memmodel.Site{decl, tbl.Sites()} {
				got := tbl.Intern(sites)
				if len(got) != len(sites) {
					t.Fatalf("%s table %d: Intern returned %d orders for %d sites", b.Name, i, len(got), len(sites))
				}
				for j, s := range sites {
					if want := tbl.Get(s.Name); got[j] != want {
						t.Errorf("%s table %d: interned %s = %v, Get = %v", b.Name, i, s.Name, got[j], want)
					}
				}
			}
		}
		for name := range b.UndetectableSites {
			if _, ok := def.Site(name); !ok {
				t.Errorf("%s: UndetectableSites names unknown site %q", b.Name, name)
			}
		}

		c := def.Clone()
		interned := c.Intern(decl)
		s := decl[len(decl)-1]
		c.Set(s.Name, memmodel.Relaxed)
		if interned[len(decl)-1] != memmodel.Relaxed {
			t.Errorf("%s: Set of %s after Intern is not visible through the interned orders", b.Name, s.Name)
		}
		if def.Get(s.Name) != s.Default {
			t.Errorf("%s: Set on a clone changed the default table", b.Name)
		}
	}
}
