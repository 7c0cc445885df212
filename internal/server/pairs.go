package server

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/join"
)

// The pair list is most of a POST /join body, so both directions of it are
// written by hand instead of through encoding/json's reflection: the bytes
// are the ones encoding/json writes for a [][2]int32, and the decoder
// accepts what encoding/json accepts for one, minus the malformed pairs it
// would silently repair.

// PairList is the wire form of a join's pairs: the JSON array
// [[r,s],[r,s],...].  It converts to and from [][2]int32.
type PairList [][2]int32

// UnmarshalJSON decodes null, to a nil list, or an array of [r,s] pairs of
// int32 integers, with JSON whitespace anywhere between tokens.  It accepts
// exactly the inputs encoding/json accepts when decoding into a [][2]int32,
// and yields the same value, with two exceptions it rejects: an inner array
// that does not hold exactly two numbers, and null in place of a pair or of
// a number.  encoding/json would zero-fill or truncate those; no server
// sends them.
func (p *PairList) UnmarshalJSON(data []byte) error {
	d := pairDecoder{data: data}
	d.space()
	var out PairList
	if bytes.HasPrefix(data[d.off:], []byte("null")) {
		d.off += len("null")
	} else {
		if !d.consume('[') {
			return d.fail("'[' or null")
		}
		// Every pair closes with one ']' and the list with one more, so for
		// a valid input this is the exact length; a pair takes at least five
		// bytes, which bounds what a hostile input can make it reserve.
		n := min(bytes.Count(data, []byte{']'})-1, len(data)/5)
		out = make(PairList, 0, max(n, 0))
		d.space()
		if !d.consume(']') {
			for {
				pair, err := d.pair()
				if err != nil {
					return err
				}
				out = append(out, pair)
				d.space()
				if d.consume(']') {
					break
				}
				if !d.consume(',') {
					return d.fail("',' or ']'")
				}
				d.space()
			}
		}
	}
	d.space()
	if d.off != len(data) {
		return d.fail("end of input")
	}
	*p = out
	return nil
}

// pairDecoder is UnmarshalJSON's cursor over its input.
type pairDecoder struct {
	data []byte
	off  int
}

func (d *pairDecoder) space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// consume advances past c if it is the next byte.
func (d *pairDecoder) consume(c byte) bool {
	if d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		return true
	}
	return false
}

// pair decodes one [r,s].
func (d *pairDecoder) pair() ([2]int32, error) {
	var pair [2]int32
	if !d.consume('[') {
		return pair, d.fail("'['")
	}
	for i := range pair {
		d.space()
		v, err := d.int32()
		if err != nil {
			return pair, err
		}
		pair[i] = v
		d.space()
		if i == 0 && !d.consume(',') {
			return pair, d.fail("',' and a second number")
		}
	}
	if !d.consume(']') {
		return pair, d.fail("']' after two numbers")
	}
	return pair, nil
}

// int32 decodes a JSON integer literal, -?(0|[1-9][0-9]*), in int32 range.
// A fraction or exponent is left unread, so the caller rejects it: encoding/
// json refuses those for an integer too, even when the value is whole.
func (d *pairDecoder) int32() (int32, error) {
	start := d.off
	neg := d.consume('-')
	limit := int64(1<<31 - 1)
	if neg {
		limit++
	}
	digits := d.off
	var v int64
	if !d.consume('0') { // a leading 0 is the whole integer part
		for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
			v = v*10 + int64(d.data[d.off]-'0')
			if v > limit {
				return 0, fmt.Errorf("server: decoding pairs: number at offset %d overflows int32", start)
			}
			d.off++
		}
	}
	if d.off == digits {
		return 0, d.fail("a number")
	}
	if neg {
		v = -v
	}
	return int32(v), nil
}

func (d *pairDecoder) fail(want string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("server: decoding pairs: unexpected end of input, want %s", want)
	}
	return fmt.Errorf("server: decoding pairs: unexpected %q at offset %d, want %s", d.data[d.off], d.off, want)
}

// AppendPairs appends pairs as the JSON array [[r,s],...], byte for byte
// what encoding/json writes for the same [][2]int32.
func AppendPairs(dst []byte, pairs [][2]int32) []byte {
	dst = append(dst, '[')
	for i, p := range pairs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendPair(dst, p[0], p[1])
	}
	return append(dst, ']')
}

// appendJoinPairs is AppendPairs for a join's own pairs, so the handler
// encodes them without first copying them into a [][2]int32.
func appendJoinPairs(dst []byte, pairs []join.Pair) []byte {
	dst = append(dst, '[')
	for i, p := range pairs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendPair(dst, p.R, p.S)
	}
	return append(dst, ']')
}

func appendPair(dst []byte, r, s int32) []byte {
	dst = append(dst, '[')
	dst = strconv.AppendInt(dst, int64(r), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(s), 10)
	return append(dst, ']')
}

// appendJoinResponse appends the POST /join body for resp: the bytes
// json.Encoder writes for the matching JoinResponseWire, trailing newline
// included.  Pairs are written only when withPairs is set and there are
// some, as the field's omitempty does.
func appendJoinResponse(dst []byte, resp *JoinResponse, withPairs bool) []byte {
	dst = append(dst, `{"epoch":`...)
	dst = strconv.AppendUint(dst, resp.Epoch, 10)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(resp.Count), 10)
	if resp.Retries != 0 {
		dst = append(dst, `,"retries":`...)
		dst = strconv.AppendInt(dst, int64(resp.Retries), 10)
	}
	if withPairs && len(resp.Pairs) > 0 {
		dst = append(dst, `,"pairs":`...)
		dst = appendJoinPairs(dst, resp.Pairs)
	}
	return append(dst, "}\n"...)
}
