package core

import "sync/atomic"

// Names memoizes the names a data structure derives from its instance
// name: location names ("q.head") and API method names ("q.enq", the
// keys of its Spec). A structure's constructor runs once per execution,
// almost always for the same few instance names, and keeps the derived
// names for its methods: through a Names they are concatenated once,
// not allocated again every execution and every call.
//
// Names is a pure function memo and safe for concurrent use by
// exploration workers. It remembers the most recent instances (up to
// namesKept); a program juggling more keeps working, it just derives
// again on a miss.
type Names[T any] struct {
	derive func(inst string) T
	// kept is an immutable snapshot of the remembered instances, newest
	// last; a miss publishes a new snapshot.
	kept atomic.Pointer[[]namesEntry[T]]
}

// namesKept bounds the instances a Names remembers.
const namesKept = 8

type namesEntry[T any] struct {
	inst  string
	names *T
}

// NewNames returns a memo over derive, which must be a pure function of
// the instance name.
func NewNames[T any](derive func(inst string) T) *Names[T] {
	return &Names[T]{derive: derive}
}

// Of returns the derived names of instance inst. The result is shared:
// callers must not modify it.
func (n *Names[T]) Of(inst string) *T {
	var kept []namesEntry[T]
	if p := n.kept.Load(); p != nil {
		kept = *p
		for i := len(kept) - 1; i >= 0; i-- {
			if kept[i].inst == inst {
				return kept[i].names
			}
		}
	}
	v := n.derive(inst)
	if len(kept) >= namesKept {
		kept = kept[1:]
	}
	next := append(append(make([]namesEntry[T], 0, len(kept)+1), kept...), namesEntry[T]{inst: inst, names: &v})
	n.kept.Store(&next)
	return &v
}
