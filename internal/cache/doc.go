// Package cache is a trace-driven cache simulation framework for the
// prime-mapped vector-cache study (Yang & Wu, ISCA 1992).
//
// A Cache is a set-associative array of lines configured by Config: total
// line count, associativity, line size, an index Mapper (bit-selection
// direct mapping, Mersenne prime mapping, or arbitrary modulo), and a
// replacement Policy (LRU, FIFO, Random). Direct-mapped and fully
// associative caches are the two extreme configurations of the same
// machinery.
//
// Beyond hit/miss counting the simulator classifies every miss with the
// standard three-C model (compulsory / capacity / conflict) using an
// embedded fully-associative LRU shadow directory of equal capacity,
// threaded through one history node per line that each frame points
// at, and attributes every conflict miss to self-interference (the
// evicting access belonged to the same vector stream) or
// cross-interference (a different stream), the distinction at the heart
// of the paper's argument.
package cache
