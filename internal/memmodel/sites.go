package memmodel

import (
	"fmt"
	"sort"
)

// Site is one named atomic-operation site in a data structure: the unit
// of memory-order parameterization. The bug-injection experiment of the
// paper (§6.4.2) weakens one site at a time.
type Site struct {
	// Name identifies the site (e.g. "enq_cas_next").
	Name string
	// Class is the operation class at the site (load/store/rmw/fence).
	Class OpClass
	// Default is the order the correct implementation uses.
	Default MemOrder
}

// OrderTable maps site names to their current memory orders. Data
// structures read their orders through it so experiments can weaken
// individual sites without touching the implementation.
//
// Orders are stored densely in declaration order (the order of the
// sites passed to NewOrderTable), so a structure can resolve its sites
// once, when it is built, with Intern, and its atomic operations then
// index a slice instead of hashing a site name per operation.
type OrderTable struct {
	// sites is the declaration, shared by Clone.
	sites []Site
	// index maps a site name to its position in sites. It is immutable
	// after NewOrderTable and shared by Clone, so per-site lookups (Get,
	// Site, WeakenSite) are map hits rather than linear scans — fuzz
	// campaigns that sweep injected orders call them per generated
	// program.
	index map[string]int
	// cur[i] is the current order of sites[i].
	cur []MemOrder
}

// NewOrderTable builds a table with every site at its default order.
// The table keeps sites (not a copy) as its declaration: Intern
// recognizes a structure's own declaration by identity.
func NewOrderTable(sites ...Site) *OrderTable {
	t := &OrderTable{
		sites: sites,
		index: make(map[string]int, len(sites)),
		cur:   make([]MemOrder, len(sites)),
	}
	for i, s := range sites {
		if _, dup := t.index[s.Name]; dup {
			panic(fmt.Sprintf("duplicate site %q", s.Name))
		}
		t.index[s.Name] = i
		t.cur[i] = s.Default
	}
	return t
}

// pos returns the declaration index of a site; unknown sites panic —
// they are authoring errors in the structure or the experiment.
func (t *OrderTable) pos(name string) int {
	i, ok := t.index[name]
	if !ok {
		panic(fmt.Sprintf("unknown memory-order site %q", name))
	}
	return i
}

// Get returns the current order for a site; unknown sites panic.
func (t *OrderTable) Get(name string) MemOrder { return t.cur[t.pos(name)] }

// Set overrides the order of a site.
func (t *OrderTable) Set(name string, o MemOrder) { t.cur[t.pos(name)] = o }

// Intern resolves sites to their current orders: the result's i-th entry
// is the order of sites[i]. A data structure calls it once, when it is
// built, with its own site declaration, and its atomic operations index
// the result by site constant. When the table was declared with that
// very slice — every table derived from the structure's default table
// by Clone, Set or Weakenings is — the result is the table's own order
// storage, shared rather than copied, so it costs nothing and a later
// Set stays visible exactly as through Get. Otherwise each site is
// looked up by name into a fresh slice (unknown sites panic). Callers
// must not modify the result.
func (t *OrderTable) Intern(sites []Site) []MemOrder {
	if len(sites) == len(t.sites) && (len(sites) == 0 || &sites[0] == &t.sites[0]) {
		return t.cur
	}
	out := make([]MemOrder, len(sites))
	for i, s := range sites {
		out[i] = t.Get(s.Name)
	}
	return out
}

// Declared returns the site definitions in declaration order — the
// order Intern indexes by. The slice is the table's own declaration,
// shared with every clone; callers must not modify it.
func (t *OrderTable) Declared() []Site { return t.sites }

// Sites returns the site definitions, sorted by name for determinism.
func (t *OrderTable) Sites() []Site {
	out := append([]Site(nil), t.sites...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Site returns the definition of a named site.
func (t *OrderTable) Site(name string) (Site, bool) {
	i, ok := t.index[name]
	if !ok {
		return Site{}, false
	}
	return t.sites[i], true
}

// Clone returns an independent copy with the same current orders.
func (t *OrderTable) Clone() *OrderTable {
	return &OrderTable{sites: t.sites, index: t.index, cur: append([]MemOrder(nil), t.cur...)}
}

// WeakenSite lowers a site's current order one step on the injection
// ladder; it reports false when the site is already at the weakest order.
func (t *OrderTable) WeakenSite(name string) bool {
	i := t.pos(name)
	next, ok := Weaken(t.sites[i].Class, t.cur[i])
	if !ok {
		return false
	}
	t.cur[i] = next
	return true
}

// Weakenings enumerates every single-site one-step weakening of the
// table's *default* orders: the paper's injection set ("we weakened one
// operation per each trial").
func (t *OrderTable) Weakenings() []*OrderTable {
	var out []*OrderTable
	for _, s := range t.Sites() {
		c := t.Clone()
		c.Set(s.Name, s.Default) // injections start from defaults
		if c.WeakenSite(s.Name) {
			out = append(out, c)
		}
	}
	return out
}
