package cache

// lineIndex maps line addresses to int32 values: an open-addressed
// table, Fibonacci-hashed and linearly probed, with backward-shift
// deletion, so it never holds tombstones and a lookup's probe run never
// outgrows the live entries. The values are dense numbers the owner
// hands out (a cache's frame numbers, the classification history's
// node numbers), and a slot holds only the value, 4 bytes: the owner
// keeps a lines array, the line of each value, and passes it to every
// call that compares or rehashes lines. The wide-set Cache and the
// history both use it; only the cache deletes.
type lineIndex struct {
	slots []int32 // value, or indexEmpty
	mask  uint64  // len(slots)-1; the length is a power of two
}

// indexEmpty marks an empty slot; values are never negative.
const indexEmpty = -1

// lineSlot is line's home slot in a table of mask+1 slots, by Fibonacci
// hashing: line addresses are often arithmetic progressions (strided
// sweeps), and the golden-ratio multiply spreads them across the table
// instead of clustering them into one probe run. The slot is taken from
// bits 32 and up of the product, where the power-of-two strides of
// vector code, 512 among them, land a run of lines in distinct slots.
func lineSlot(line, mask uint64) uint64 { return line * 0x9e3779b97f4a7c15 >> 32 & mask }

// indexSlots returns a table length for at most n entries: the least
// power of two at least 4n (and 64). A cache that evicts as it fills
// slides a window of lines through its index; at a load of ½ some
// strides gather that window into probe runs dozens of slots long, at ¼
// none of the strides measured did.
func indexSlots(n int) int {
	size := 64
	for size < 4*n {
		size *= 2
	}
	return size
}

// init gives the index n empty slots, n a power of two.
func (x *lineIndex) init(n int) {
	x.slots = make([]int32, n)
	x.mask = uint64(n - 1)
	x.reset()
}

// reset empties every slot in place.
func (x *lineIndex) reset() {
	for i := range x.slots {
		x.slots[i] = indexEmpty
	}
}

// find returns line's slot and value. When line is absent the value is
// indexEmpty and the slot is the empty one that ended the probe, where
// put may store line's value before anything else changes the table.
func (x *lineIndex) find(line uint64, lines []uint64) (uint64, int32) {
	slots, mask := x.slots, x.mask
	for i := lineSlot(line, mask); ; i = (i + 1) & mask {
		if v := slots[i]; v == indexEmpty || lines[v] == line {
			return i, v
		}
	}
}

// put stores v in slot i, which find returned for an absent line.
func (x *lineIndex) put(i uint64, v int32) { x.slots[i] = v }

// insert stores v for line, which must be absent, in the first empty
// slot of its probe run.
func (x *lineIndex) insert(line uint64, v int32) {
	i := lineSlot(line, x.mask)
	for x.slots[i] != indexEmpty {
		i = (i + 1) & x.mask
	}
	x.slots[i] = v
}

// remove empties slot i, then walks the rest of its probe run, moving
// back into the hole every entry whose home does not lie between the
// hole and the entry, so no lookup meets an empty slot before its line.
func (x *lineIndex) remove(i uint64, lines []uint64) {
	slots, mask := x.slots, x.mask
	for j := (i + 1) & mask; slots[j] != indexEmpty; j = (j + 1) & mask {
		// The entry at j may fill the hole when the hole lies in
		// [home, j), cyclically: its home is at least as far back from
		// j as the hole is.
		if v := slots[j]; (j-lineSlot(lines[v], mask))&mask >= (j-i)&mask {
			slots[i], i = v, j
		}
	}
	slots[i] = indexEmpty
}

// grow doubles the table and reinserts every entry.
func (x *lineIndex) grow(lines []uint64) {
	old := x.slots
	x.init(2 * len(old))
	for _, v := range old {
		if v != indexEmpty {
			x.insert(lines[v], v)
		}
	}
}

// link places a numbered node in a recency list: node numbers, -1 at
// either end. The owner keeps one link per node in an array.
type link struct{ prev, next int32 }

// recency is an intrusive doubly linked list of nodes, most recent at
// the head, whose links live in the owner's array. The classification
// history keeps one for its shadow; a wide-set Cache keeps one per set.
type recency struct {
	head, tail int32 // -1 when the list is empty
}

func (r *recency) reset() { r.head, r.tail = -1, -1 }

// pushFront puts node n, in no list, at the head.
func (r *recency) pushFront(links []link, n int32) {
	links[n] = link{prev: -1, next: r.head}
	if r.head >= 0 {
		links[r.head].prev = n
	} else {
		r.tail = n
	}
	r.head = n
}

// unlink takes node n out of the list; its own links go stale.
func (r *recency) unlink(links []link, n int32) {
	l := links[n]
	if l.prev >= 0 {
		links[l.prev].next = l.next
	} else {
		r.head = l.next
	}
	if l.next >= 0 {
		links[l.next].prev = l.prev
	} else {
		r.tail = l.prev
	}
}

// use moves node n, in the list, to the head. It splices n in place
// rather than through unlink and pushFront, because it is the hit path
// of every classifying simulation: n is not the head, so it has a
// predecessor, and the head stays non-empty.
func (r *recency) use(links []link, n int32) {
	if r.head == n {
		return
	}
	l := links[n]
	links[l.prev].next = l.next
	if l.next >= 0 {
		links[l.next].prev = l.prev
	} else {
		r.tail = l.prev
	}
	links[n] = link{prev: -1, next: r.head}
	links[r.head].prev = n
	r.head = n
}
