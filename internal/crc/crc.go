// Package crc computes CRC-32 (IEEE), the checksum of hash/crc32's
// ChecksumIEEE, bit for bit, without touching the Go heap.
//
// hash/crc32 picks its IEEE implementation at run time and calls it
// through a function value, so escape analysis cannot see that the input
// stays put: every buffer handed to it moves to the heap. The journal's
// entry headers, the allocator's ledger words and redo digest, and the
// store's chain words are checksummed on every commit, so they use this
// package instead: a slicing-by-8 loop over package tables, which keeps
// a caller's stack buffer on the stack.
package crc

import (
	"encoding/binary"
	"hash/crc32"
)

// tab holds the slicing-by-8 tables: tab[0] is the standard byte table,
// tab[k][b] the CRC of byte b followed by k zero bytes.
var tab = func() (t [8][256]uint32) {
	t[0] = *crc32.MakeTable(crc32.IEEE)
	for k := 1; k < 8; k++ {
		for b := range t[k] {
			prev := t[k-1][b]
			t[k][b] = t[0][prev&0xFF] ^ prev>>8
		}
	}
	return t
}()

// Update returns the result of adding the bytes in p to crc: the same
// value as crc32.Update(crc, crc32.IEEETable, p).
func Update(crc uint32, p []byte) uint32 {
	crc = ^crc
	for ; len(p) >= 8; p = p[8:] {
		lo, hi := binary.LittleEndian.Uint32(p)^crc, binary.LittleEndian.Uint32(p[4:])
		crc = tab[7][lo&0xFF] ^ tab[6][lo>>8&0xFF] ^ tab[5][lo>>16&0xFF] ^ tab[4][lo>>24] ^
			tab[3][hi&0xFF] ^ tab[2][hi>>8&0xFF] ^ tab[1][hi>>16&0xFF] ^ tab[0][hi>>24]
	}
	for _, b := range p {
		crc = tab[0][byte(crc)^b] ^ crc>>8
	}
	return ^crc
}

// Checksum returns the CRC-32 (IEEE) of p: crc32.ChecksumIEEE(p).
func Checksum(p []byte) uint32 { return Update(0, p) }

// Words returns the CRC-32 (IEEE) of the little-endian bytes of words,
// eight bytes per step straight from the uint64s, with no byte buffer.
func Words(words ...uint64) uint32 {
	crc := ^uint32(0)
	for _, w := range words {
		lo, hi := uint32(w)^crc, uint32(w>>32)
		crc = tab[7][lo&0xFF] ^ tab[6][lo>>8&0xFF] ^ tab[5][lo>>16&0xFF] ^ tab[4][lo>>24] ^
			tab[3][hi&0xFF] ^ tab[2][hi>>8&0xFF] ^ tab[1][hi>>16&0xFF] ^ tab[0][hi>>24]
	}
	return ^crc
}
