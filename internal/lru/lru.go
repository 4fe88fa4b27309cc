// Package lru keeps intrusive recency lists for set-associative arrays:
// for every set, a doubly linked list of its valid ways from least to
// most recently used, threaded through one link pair per way, plus the
// set's valid-way count. The data caches and the TLB arrays name their
// replacement victims with it, so picking one costs no scan.
//
// Links are 1-based way indices with 0 ending a list, so the zero value
// of every slice is a set of empty lists: New allocates without an init
// loop and Clone is plain slice copies.
package lru

// link holds one way's neighbours in its set's list, as way index + 1.
type link struct{ prev, next int32 }

// head holds one set's list ends, as way index + 1, and its length.
type head struct{ lru, mru, n int32 }

// Lists is one recency list per set over an array of sets*ways ways,
// row-major by set. Way indices are array-wide; every method also takes
// the way's set, which the caller already knows. It is not safe for
// concurrent use.
type Lists struct {
	links []link
	heads []head
}

// New returns empty lists for an array of sets sets of ways ways.
func New(sets, ways int) Lists {
	return Lists{links: make([]link, sets*ways), heads: make([]head, sets)}
}

// Clone returns an independent copy of the lists.
func (l *Lists) Clone() Lists {
	return Lists{
		links: append([]link(nil), l.links...),
		heads: append([]head(nil), l.heads...),
	}
}

// Len returns the number of valid ways in set.
func (l *Lists) Len(set int) int { return int(l.heads[set].n) }

// LRU returns the least recently used valid way of set, or -1 when the
// set holds none.
func (l *Lists) LRU(set int) int { return int(l.heads[set].lru) - 1 }

// Push appends way i, which must not be on a list, at the most recently
// used end of set's list.
func (l *Lists) Push(set, i int) {
	h := &l.heads[set]
	w := int32(i) + 1
	l.links[i] = link{prev: h.mru}
	if h.mru != 0 {
		l.links[h.mru-1].next = w
	} else {
		h.lru = w
	}
	h.mru = w
	h.n++
}

// Remove takes valid way i out of set's list.
func (l *Lists) Remove(set, i int) {
	l.unlink(&l.heads[set], i)
	l.heads[set].n--
}

// Touch moves valid way i to the most recently used end of set's list.
func (l *Lists) Touch(set, i int) {
	h := &l.heads[set]
	w := int32(i) + 1
	if h.mru == w {
		return
	}
	l.unlink(h, i)
	l.links[i] = link{prev: h.mru}
	l.links[h.mru-1].next = w
	h.mru = w
}

// unlink splices way i out of the list h heads, leaving h.n alone.
func (l *Lists) unlink(h *head, i int) {
	lk := l.links[i]
	if lk.prev != 0 {
		l.links[lk.prev-1].next = lk.next
	} else {
		h.lru = lk.next
	}
	if lk.next != 0 {
		l.links[lk.next-1].prev = lk.prev
	} else {
		h.mru = lk.prev
	}
}

// Order appends set's valid ways to dst from least to most recently
// used and returns the extended slice; oracles compare it with a
// reference's recency.
func (l *Lists) Order(dst []int, set int) []int {
	for w := l.heads[set].lru; w != 0; w = l.links[w-1].next {
		dst = append(dst, int(w-1))
	}
	return dst
}
