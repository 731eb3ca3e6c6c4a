package serve

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// The server's one compressor: a single-member gzip stream (RFC 1952,
// 1951) of greedy LZ77 over a single-probe hash table, in dynamic-Huffman
// blocks of gzBlockTokens tokens. It has no level: see DESIGN §12.
const (
	gzTableBits         = 15      // 1<<15 uint32s: 128 KiB
	gzMaxDist           = 1 << 15 // DEFLATE's window
	gzBlockTokens       = 1 << 14
	gzMaxBits           = 15      // longest literal/length and distance code
	gzMaxCLBits         = 7       // longest code-length code
	gzNumLit, gzNumDist = 286, 30 // literal/length and distance symbols
)

// gzEncoder is appendGzip's scratch. A table entry is a position plus
// the offset cur, which each call moves past its input: an older call's
// entry lies before the input, so calls need not clear the table. A
// block's tokens are its literal bytes, kept as they are, and its
// matches; each match says how many of the literals come before it.
// Both count against gzBlockTokens.
type gzEncoder struct {
	table    [1 << gzTableBits]uint32
	cur      uint32
	acc      uint64 // bits not yet in out, nacc of them
	nacc     uint64
	out      []byte
	lits     []byte
	matches  []uint64 // literals before it<<32 | distance symbol<<24 | (length-3)<<16 | distance's extra bits
	litFreq  [gzNumLit]uint32
	distFreq [gzNumDist]uint32
	clFreq   [19]uint32
	litLen   [gzNumLit]uint8
	distLen  [gzNumDist]uint8
	clLen    [19]uint8
	litCode  [gzNumLit]uint16
	distCode [gzNumDist]uint16
	clCode   [19]uint16
	rle      [gzNumLit + gzNumDist]uint16 // a code-length symbol | its extra bits<<8
}

// appendGzip appends body's gzip form, which depends on body alone;
// crc is crc32.ChecksumIEEE(body), which the caller has for the ETag.
func (e *gzEncoder) appendGzip(dst, body []byte, crc uint32) []byte {
	if cap(dst)-len(dst) < len(body)/4 { // room for the usual sixth, so that dst seldom grows
		dst = append(make([]byte, 0, len(dst)+len(body)/4+64), dst...)
	}
	if e.lits == nil || e.cur > 1<<30 { // first use, or before positions could wrap
		e.lits, e.matches = make([]byte, 0, gzBlockTokens), make([]uint64, 0, gzBlockTokens)
		e.cur = 1 // an empty slot lies before the input
		clear(e.table[:])
	}
	e.out = append(dst, 0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 4, 255) // no name or time, fastest, unknown OS
	e.lz77(body)
	e.write(0, 7) // to the byte
	dst = binary.LittleEndian.AppendUint32(e.out, crc)
	e.out, e.acc, e.nacc = nil, 0, 0
	e.cur += uint32(len(body))
	return binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
}

// lz77 tokenises src, writing a block whenever the tokens fill. Probes
// step further apart the longer a literal run, skimming random input.
func (e *gzEncoder) lz77(src []byte) {
	next, lit := 0, 0 // the position to probe, the first byte not yet a token
	for limit := len(src) - 8; next < limit; {
		cv := binary.LittleEndian.Uint64(src[next:])
		h, pos := hash8(cv), uint32(next)+e.cur
		dist := pos - e.table[h]
		e.table[h] = pos
		if dist-1 >= gzMaxDist || int(dist) > next || binary.LittleEndian.Uint32(src[next-int(dist):]) != uint32(cv) {
			next += 1 + (next-lit)>>5
			continue
		}
		if run := src[lit:next]; len(run) > 0 {
			e.literals(run)
		}
		if len(e.lits)+len(e.matches) == gzBlockTokens {
			e.writeBlock(0)
		}
		n := 4 + matchLen(src[next+4:min(next+258, len(src))], src[next-int(dist)+4:])
		ds := distSym(dist - 1)
		e.matches = append(e.matches, uint64(len(e.lits))<<32|uint64(ds)<<24|uint64(n-3)<<16|uint64(dist-1-distBase[ds]))
		e.litFreq[257+int(lenSym[n-3])]++
		e.distFreq[ds]++
		next, lit = next+n, next+n
		if next < limit { // the match's last two positions, for the matches after it
			e.table[hash8(binary.LittleEndian.Uint64(src[next-2:]))] = uint32(next-2) + e.cur
			e.table[hash8(binary.LittleEndian.Uint64(src[next-1:]))] = uint32(next-1) + e.cur
		}
	}
	e.literals(src[lit:])
	e.writeBlock(1)
}

// hash8 is the table slot of the eight bytes x.
func hash8(x uint64) uint32 {
	return uint32(x * 0xcf1bbcdcb7a56463 >> (64 - gzTableBits))
}

// literals adds lits to the block's literals, as much as it has room
// for, and goes on in a new block while any are left.
func (e *gzEncoder) literals(lits []byte) {
	for len(lits) > 0 {
		room := gzBlockTokens - len(e.lits) - len(e.matches)
		if room == 0 {
			e.writeBlock(0)
			continue
		}
		run := lits[:min(room, len(lits))]
		for _, b := range run {
			e.litFreq[b]++
		}
		e.lits = append(e.lits, run...)
		lits = lits[len(run):]
	}
}

// matchLen is how many leading bytes a shares with the longer b.
func matchLen(a, b []byte) int {
	n := 0
	for ; n+8 <= len(a); n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < len(a) && a[n] == b[n] {
		n++
	}
	return n
}

// writeBlock writes the tokens as one dynamic-Huffman block (RFC 1951
// §3.2.7), the last if final is 1, and starts the next.
func (e *gzEncoder) writeBlock(final uint64) {
	e.litFreq[256] = 1 // end of block
	huffman(e.litFreq[:], e.litLen[:], e.litCode[:], gzMaxBits)
	huffman(e.distFreq[:], e.distLen[:], e.distCode[:], gzMaxBits)
	nlit, ndist := gzNumLit, gzNumDist
	for nlit > 257 && e.litLen[nlit-1] == 0 {
		nlit--
	}
	for ndist > 1 && e.distLen[ndist-1] == 0 {
		ndist--
	}
	rle := rleLengths(e.rle[:0], e.litLen[:nlit], e.distLen[:ndist])
	clear(e.clFreq[:])
	for _, r := range rle {
		e.clFreq[r&0xff]++
	}
	huffman(e.clFreq[:], e.clLen[:], e.clCode[:], gzMaxCLBits)
	ncl := 19
	for ncl > 4 && e.clLen[clOrder[ncl-1]] == 0 {
		ncl--
	}
	e.write(final|2<<1|uint64(nlit-257)<<3|uint64(ndist-1)<<8|uint64(ncl-4)<<13, 17)
	for _, sym := range clOrder[:ncl] {
		e.write(uint64(e.clLen[sym]), 3)
	}
	for _, r := range rle {
		sym := r & 0xff
		e.write(uint64(e.clCode[sym]), uint64(e.clLen[sym]))
		e.write(uint64(r>>8), uint64(clExtra[sym]))
	}
	// The tokens. A literal is at most 15 bits and a match 48, and acc
	// is flushed after each to under 8, so it never holds more than 55.
	if need := len(e.out) + 2*len(e.lits) + 6*len(e.matches) + 8; need > cap(e.out) {
		e.out = append(make([]byte, 0, max(need, 2*cap(e.out))), e.out...)
	}
	// A literal's code, and a length's code and extra bits, with the
	// number of bits above bit 24; a distance's code, its length above
	// bit 16 and that with the extra bits above bit 24.
	var litEnc, lenEnc [256]uint32
	var distEnc [gzNumDist]uint32
	for ds := range distEnc {
		n := e.distLen[ds]
		distEnc[ds] = uint32(e.distCode[ds]) | uint32(n)<<16 | uint32(n+distExtra[ds])<<24
	}
	for b := range litEnc {
		litEnc[b] = uint32(e.litCode[b]) | uint32(e.litLen[b])<<24
	}
	for l := range lenEnc {
		s := lenSym[l]
		c, n := uint32(e.litCode[257+int(s)]), e.litLen[257+int(s)]
		lenEnc[l] = c | (uint32(l)-uint32(lenBase[s]))<<n | uint32(n+lenExtra[s])<<24
	}
	acc, nacc, n, out := e.acc, e.nacc, len(e.out), e.out[:cap(e.out)]
	lit := 0
	for i := 0; i <= len(e.matches); i++ {
		end, t := len(e.lits), uint64(0)
		if i < len(e.matches) {
			t = e.matches[i]
			end = int(t >> 32)
		}
		if lit < end {
			for _, b := range e.lits[lit:end] {
				c := litEnc[b]
				acc |= uint64(c&0xffffff) << nacc
				nacc += uint64(c >> 24)
				binary.LittleEndian.PutUint64(out[n:], acc)
				n += int(nacc >> 3)
				acc >>= nacc &^ 7
				nacc &= 7
			}
			lit = end
		}
		if i == len(e.matches) {
			break
		}
		c, ds := lenEnc[t>>16&0xff], t>>24&31
		acc |= uint64(c&0xffffff) << nacc
		nacc += uint64(c >> 24)
		d := distEnc[ds]
		acc |= (uint64(d&0xffff) | (t&0xffff)<<(d>>16&0xff)) << nacc
		nacc += uint64(d >> 24)
		binary.LittleEndian.PutUint64(out[n:], acc)
		n += int(nacc >> 3)
		acc >>= nacc &^ 7
		nacc &= 7
	}
	e.acc, e.nacc, e.out = acc, nacc, out[:n]
	e.write(uint64(e.litCode[256]), uint64(e.litLen[256]))
	e.lits, e.matches = e.lits[:0], e.matches[:0]
	clear(e.litFreq[:])
	clear(e.distFreq[:])
}

// write adds the low nbits (at most 32) of v, least significant first.
func (e *gzEncoder) write(v, nbits uint64) {
	e.acc |= v << e.nacc
	for e.nacc += nbits; e.nacc >= 8; e.nacc -= 8 {
		e.out = append(e.out, byte(e.acc))
		e.acc >>= 8
	}
}

// huffman sets lens and codes to a canonical code for freq: Huffman's,
// with lengths past maxBits cut to it and the code made complete again
// by moving the deepest shorter leaves down a level.
func huffman(freq []uint32, lens []uint8, codes []uint16, maxBits int) {
	var sorted [gzNumLit]uint64
	var w [2 * gzNumLit]uint32 // weights, then depths
	var parent [2 * gzNumLit]uint16
	clear(lens)
	n := 0
	for sym, f := range freq {
		if f != 0 {
			sorted[n] = uint64(f)<<16 | uint64(sym)
			n++
		}
	}
	// With one symbol, or none (a block sends a distance code all the
	// same), one code of one bit: an incomplete code decoders accept.
	if n < 2 {
		lens[sorted[0]&0xffff], codes[sorted[0]&0xffff] = 1, 0
		return
	}
	slices.Sort(sorted[:n])
	for i, s := range sorted[:n] {
		w[i] = uint32(s >> 16)
	}
	// Join the two lightest of the leaves and the joined nodes (both in
	// weight order) until one root is left, then take depths downwards.
	leaf, node := 0, n
	for k := n; k < 2*n-1; k++ {
		for range 2 {
			i := &node
			if leaf < n && (node == k || w[leaf] <= w[node]) {
				i = &leaf
			}
			w[k] += w[*i]
			parent[*i] = uint16(k)
			*i++
		}
	}
	w[2*n-2] = 0
	for k := 2*n - 3; k >= 0; k-- {
		w[k] = w[parent[k]] + 1
	}
	// w[i] is the length of sorted[i], longest first.
	var count [gzMaxBits + 1]int
	kraft := 0
	for _, l := range w[:n] {
		count[min(int(l), maxBits)]++
		kraft += 1 << (maxBits - min(int(l), maxBits))
	}
	for ; kraft > 1<<maxBits; kraft-- {
		count[maxBits]--
		l := maxBits - 1
		for count[l] == 0 {
			l--
		}
		count[l]--
		count[l+1] += 2
	}
	var next [gzMaxBits + 1]uint16
	for l, i := maxBits, 0; l > 0; l-- {
		for c := count[l]; c > 0; c-- {
			lens[sorted[i]&0xffff] = uint8(l)
			i++
		}
	}
	// Canonical codes, bit-reversed for write.
	for l := 1; l <= maxBits; l++ {
		next[l] = (next[l-1] + uint16(count[l-1])) << 1
	}
	for sym, l := range lens {
		if l != 0 {
			codes[sym] = bits.Reverse16(next[l]) >> (16 - l)
			next[l]++
		}
	}
}

// rleLengths appends to dst the literal/length then distance code
// lengths as one run-length coded sequence: 16 repeats the previous
// length 3–6 times, 17 and 18 are runs of 3–10 and 11–138 zeros.
func rleLengths(dst []uint16, lit, dist []uint8) []uint16 {
	var seq [gzNumLit + gzNumDist]uint8
	all := append(append(seq[:0], lit...), dist...)
	for i := 0; i < len(all); {
		l, run := all[i], 1
		for i+run < len(all) && all[i+run] == l && run < 138 && (l == 0 || run < 7) {
			run++
		}
		i += run
		switch {
		case l == 0 && run >= 11:
			dst = append(dst, 18|uint16(run-11)<<8)
		case l == 0 && run >= 3:
			dst = append(dst, 17|uint16(run-3)<<8)
		case l != 0 && run >= 4:
			dst = append(dst, uint16(l), 16|uint16(run-4)<<8)
		default:
			for ; run > 0; run-- {
				dst = append(dst, uint16(l))
			}
		}
	}
	return dst
}

// RFC 1951's tables, by symbol (lengths' 257–285 from 0; bases less 3, 1).
var (
	clOrder   = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
	clExtra   = [19]uint8{16: 2, 17: 3, 18: 7}
	lenBase   = [29]uint8{0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 255}
	lenExtra  = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase  = [30]uint32{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192, 12288, 16384, 24576}
	distExtra = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	lenSym    [256]uint8
)

func init() {
	for s, b := range lenBase { // 285 (s 28) takes 258 from 284
		for l := int(b); l < min(256, int(b)+1<<lenExtra[s]); l++ {
			lenSym[l] = uint8(s)
		}
	}
}

// distSym is the symbol of a distance less 1: past 3, two a power of 2.
func distSym(d uint32) uint8 {
	if d < 4 {
		return uint8(d)
	}
	top := bits.Len32(d) - 1
	return uint8(2*top) + uint8(d>>(top-1)&1)
}
