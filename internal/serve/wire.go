package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// The estimate wire decoder. Estimate bodies are almost entirely counter
// vectors (253 floats per sample, of which a model reads ~10), and
// encoding/json spends most of a request's serving time on them: a full
// validity pre-scan, then a reflective walk that feeds every byte through
// its scanner state machine. This decoder makes one pass over the body
// and parses each counter with strconv.ParseFloat straight from the body
// bytes.
//
// Its contract is json.Unmarshal's: it accepts exactly the bodies
// json.Unmarshal accepts into EstimateRequest or BatchRequest and
// produces identical values, floats bit for bit. That covers the corners
// of encoding/json's behaviour too: case-insensitive keys, validated but
// ignored unknown members, null leaving scalars untouched and clearing
// slices and pointers, repeated keys decoding into the existing elements,
// invalid UTF-8 becoming U+FFFD, and a nesting limit of 10000.
// FuzzDecodeEstimateBody holds the two decoders to that contract.

// MaxBodyBytes caps every request body the API reads; a larger body is
// answered 413.
const MaxBodyBytes = 64 << 20

// maxNestingDepth is encoding/json's limit on nested arrays and objects.
const maxNestingDepth = 10000

// ReadEstimateBody applies the estimate endpoints' request rules, POST
// only and at most MaxBodyBytes, and reads the body. On failure it
// returns the status to answer with (405 with Allow set, 413, or 400)
// and the reason.
func ReadEstimateBody(w http.ResponseWriter, r *http.Request) ([]byte, int, error) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		return nil, http.StatusMethodNotAllowed, errors.New("POST only")
	}
	return readBody(w, r)
}

var errBodyTooLarge = fmt.Errorf("request body over %d bytes", MaxBodyBytes)

// readBody reads the whole body once. A body that declares its length is
// read into a buffer of exactly that size; a chunked one grows as it
// arrives. Either way the cap answers 413.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, int, error) {
	if r.ContentLength > MaxBodyBytes {
		return nil, http.StatusRequestEntityTooLarge, errBodyTooLarge
	}
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	var buf []byte
	var err error
	if r.ContentLength > 0 {
		buf = make([]byte, r.ContentLength)
		_, err = io.ReadFull(body, buf)
	} else {
		buf, err = io.ReadAll(body)
	}
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return nil, http.StatusRequestEntityTooLarge, errBodyTooLarge
	case err != nil:
		return nil, http.StatusBadRequest, fmt.Errorf("reading body: %w", err)
	}
	return buf, http.StatusOK, nil
}

// DecodeEstimateRequest parses body into req as json.Unmarshal would.
func DecodeEstimateRequest(body []byte, req *EstimateRequest) error {
	d := wireDecoder{data: body}
	return d.top(func() error { return d.estimate(req, 0) })
}

// DecodeBatchRequest parses body into req as json.Unmarshal would.
func DecodeBatchRequest(body []byte, req *BatchRequest) error {
	d := wireDecoder{data: body}
	return d.top(func() error { return d.batch(req, 0) })
}

// Member names, in the order the decode switches below number them.
var (
	batchFields    = []string{"requests", "deadline_ms"}
	estimateFields = []string{"samples", "deadline_ms", "priority"}
	sampleFields   = []string{"machine_id", "platform", "counters", "metered_watts"}
)

// wireDecoder is a cursor over one body. Every method that parses a value
// starts at its first byte and leaves off just past its last. depth
// arguments count the arrays and objects enclosing the value.
type wireDecoder struct {
	data []byte
	off  int
	// Lengths of the last samples and counters arrays: the capacity to
	// give the next fresh slice, so a body of same-width samples
	// allocates each slice once instead of growing it by doubling.
	samplesHint, countersHint int
}

func (d *wireDecoder) top(value func() error) error {
	d.space()
	if err := value(); err != nil {
		return err
	}
	d.space()
	if d.off < len(d.data) {
		return d.syntax("after top-level value")
	}
	return nil
}

func (d *wireDecoder) batch(req *BatchRequest, depth int) error {
	return d.object("BatchRequest", depth, func(key []byte) error {
		switch matchField(key, batchFields) {
		case 0:
			_, err := decodeSlice(d, "[]EstimateRequest", depth+1, &req.Requests, 0, func(er *EstimateRequest) error {
				return d.estimate(er, depth+2)
			})
			return err
		case 1:
			return d.float(&req.DeadlineMS)
		}
		return d.skip(depth + 1)
	})
}

func (d *wireDecoder) estimate(req *EstimateRequest, depth int) error {
	return d.object("EstimateRequest", depth, func(key []byte) error {
		switch matchField(key, estimateFields) {
		case 0:
			n, err := decodeSlice(d, "[]SampleJSON", depth+1, &req.Samples, d.samplesHint, func(s *SampleJSON) error {
				return d.sample(s, depth+2)
			})
			d.samplesHint = n
			return err
		case 1:
			return d.float(&req.DeadlineMS)
		case 2:
			return d.string(&req.Priority)
		}
		return d.skip(depth + 1)
	})
}

func (d *wireDecoder) sample(s *SampleJSON, depth int) error {
	return d.object("SampleJSON", depth, func(key []byte) error {
		switch matchField(key, sampleFields) {
		case 0:
			return d.string(&s.MachineID)
		case 1:
			return d.string(&s.Platform)
		case 2:
			n, err := decodeSlice(d, "[]float64", depth+1, &s.Counters, d.countersHint, d.float)
			d.countersHint = n
			return err
		case 3:
			if d.lit("null") {
				s.MeteredWatts = nil
				return nil
			}
			if s.MeteredWatts == nil {
				s.MeteredWatts = new(float64)
			}
			return d.float(s.MeteredWatts)
		}
		return d.skip(depth + 1)
	})
}

// decodeSlice decodes a JSON array (or null) into *dst as encoding/json
// does: existing elements are decoded into in place, the slice is cut to
// the array's length, and [] gives an empty non-nil slice.
// It returns the array's length; hint is the capacity for a fresh slice.
func decodeSlice[T any](d *wireDecoder, what string, depth int, dst *[]T, hint int, elem func(*T) error) (int, error) {
	if d.lit("null") {
		*dst = nil
		return 0, nil
	}
	s := *dst
	n, err := d.array(what, depth, func(i int) error {
		s = growAt(s, i, hint)
		return elem(&s[i])
	})
	if err != nil {
		return 0, err
	}
	*dst = endSlice(s, n)
	return n, nil
}

// growAt makes s[i] addressable exactly as encoding/json does: an index
// inside the capacity re-exposes whatever element the backing array
// already holds (a repeated key decodes into it), and growth happens only
// when the slice is full. A first allocation takes the caller's capacity
// hint; capacity is otherwise unobservable.
func growAt[T any](s []T, i, hint int) []T {
	switch {
	case i < len(s):
		return s
	case i < cap(s):
		return s[:i+1]
	case cap(s) == 0 && hint > 1:
		return make([]T, 1, hint)
	}
	var zero T
	return append(s, zero)
}

// endSlice cuts s to the n elements an array held; an empty array gives
// a fresh empty slice, as in encoding/json.
func endSlice[T any](s []T, n int) []T {
	if n == 0 {
		return []T{}
	}
	return s[:n]
}

// object parses an object whose members are decoded by member: it is
// called with each unquoted key and the cursor on the member's value,
// and must consume that value. null leaves a struct as it was. what
// names the Go type for errors.
func (d *wireDecoder) object(what string, depth int, member func(key []byte) error) error {
	if d.lit("null") {
		return nil
	}
	if empty, err := d.open('{', '}', what, depth); err != nil || empty {
		return err
	}
	for {
		if d.peek() != '"' {
			return d.syntax("looking for beginning of object key string")
		}
		key, plain, err := d.scanString()
		if err != nil {
			return err
		}
		if !plain {
			key = unquote(key)
		}
		d.space()
		if d.peek() != ':' {
			return d.syntax("after object key")
		}
		d.off++
		d.space()
		if err := member(key); err != nil {
			return err
		}
		if done, err := d.endOfElement('}'); err != nil || done {
			return err
		}
	}
}

// array parses an array whose i-th element is decoded by elem, which
// must consume it, and returns the element count.
func (d *wireDecoder) array(what string, depth int, elem func(i int) error) (int, error) {
	if empty, err := d.open('[', ']', what, depth); err != nil || empty {
		return 0, err
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return 0, err
		}
		if done, err := d.endOfElement(']'); err != nil || done {
			return i + 1, err
		}
	}
}

// open consumes the opening bracket of an array or object, and the
// closing one too when the container is empty. depth counts the
// containers around it, so the limit applies to depth+1.
func (d *wireDecoder) open(opening, closing byte, what string, depth int) (empty bool, err error) {
	if d.peek() != opening {
		return false, d.mismatch(what)
	}
	if depth+1 > maxNestingDepth {
		return false, fmt.Errorf("exceeded max depth %d at offset %d", maxNestingDepth, d.off)
	}
	d.off++
	d.space()
	if d.peek() == closing {
		d.off++
		return true, nil
	}
	return false, nil
}

// endOfElement consumes what follows an array element or object member:
// the closing bracket (done) or a comma and the space after it.
func (d *wireDecoder) endOfElement(closing byte) (done bool, err error) {
	d.space()
	switch d.peek() {
	case closing:
		d.off++
		return true, nil
	case ',':
		d.off++
		d.space()
		return false, nil
	}
	return false, d.syntax("looking for ',' or '" + string(closing) + "'")
}

// skip validates and discards one value: an unknown member's, which
// encoding/json checks but does not decode (so its numbers are not
// range-checked either).
func (d *wireDecoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{':
		return d.object("", depth, func([]byte) error { return d.skip(depth + 1) })
	case c == '[':
		_, err := d.array("", depth, func(int) error { return d.skip(depth + 1) })
		return err
	case c == '"':
		_, _, err := d.scanString()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.scanNumber()
		return err
	case d.lit("true"), d.lit("false"), d.lit("null"):
		return nil
	}
	return d.syntax("looking for beginning of value")
}

// lit consumes the literal if the cursor is on it. Anything else is left
// for the caller, which rejects a malformed literal.
func (d *wireDecoder) lit(lit string) bool {
	if bytes.HasPrefix(d.data[d.off:], []byte(lit)) {
		d.off += len(lit)
		return true
	}
	return false
}

// float decodes a number (null leaves *dst as it was). Numbers outside
// the float64 range are an error, as in encoding/json.
func (d *wireDecoder) float(dst *float64) error {
	if d.lit("null") {
		return nil
	}
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return d.mismatch("float64")
	}
	num, err := d.scanNumber()
	if err != nil {
		return err
	}
	// The body is never written after it is read, so the number can be
	// parsed in place rather than copied into a string.
	f, err := strconv.ParseFloat(unsafe.String(&num[0], len(num)), 64)
	if err != nil {
		return fmt.Errorf("number %s out of float64 range at offset %d", num, d.off)
	}
	*dst = f
	return nil
}

// scanNumber consumes a number in JSON's strict grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *wireDecoder) scanNumber() ([]byte, error) {
	data, i := d.data, d.off
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = skipDigits(data, i+1)
	default:
		return nil, d.syntaxAt(i, "in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		if j := skipDigits(data, i+1); j > i+1 {
			i = j
		} else {
			return nil, d.syntaxAt(i+1, "after decimal point in numeric literal")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if j := skipDigits(data, i); j > i {
			i = j
		} else {
			return nil, d.syntaxAt(i, "in exponent of numeric literal")
		}
	}
	num := data[d.off:i]
	d.off = i
	return num, nil
}

func skipDigits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// string decodes a string (null leaves *dst as it was).
func (d *wireDecoder) string(dst *string) error {
	if d.lit("null") {
		return nil
	}
	if d.peek() != '"' {
		return d.mismatch("string")
	}
	raw, plain, err := d.scanString()
	if err != nil {
		return err
	}
	if plain {
		*dst = string(raw)
	} else {
		*dst = string(unquote(raw))
	}
	return nil
}

// scanString validates and consumes a string literal, returning its
// contents between the quotes. plain reports that they are printable
// ASCII without escapes, so the raw bytes are the value.
func (d *wireDecoder) scanString() (raw []byte, plain bool, err error) {
	data := d.data
	start := d.off + 1
	plain = true
	for i := start; i < len(data); {
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			return data[start:i], plain, nil
		case c == '\\':
			plain = false
			if i+1 >= len(data) {
				return nil, false, d.syntaxAt(i+1, "in string escape code")
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if hex4(data[i+2:]) < 0 {
					return nil, false, d.syntaxAt(i+2, "in \\u hexadecimal character escape")
				}
				i += 6
			default:
				return nil, false, d.syntaxAt(i+1, "in string escape code")
			}
		case c < ' ':
			return nil, false, d.syntaxAt(i, "in string literal")
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			i++
		}
	}
	return nil, false, d.syntaxAt(len(data), "in string literal")
}

// unquote decodes the contents of a validated string literal the way
// encoding/json does: escapes are resolved, a surrogate pair becomes one
// rune, and a lone surrogate or an invalid UTF-8 byte becomes U+FFFD.
func unquote(s []byte) []byte {
	b := make([]byte, 0, len(s)+utf8.UTFMax)
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\' && s[i+1] == 'u':
			r := hex4(s[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
					if dec := utf16.DecodeRune(r, hex4(s[i+2:])); dec != unicode.ReplacementChar {
						b = utf8.AppendRune(b, dec)
						i += 6
						continue
					}
				}
				r = unicode.ReplacementChar
			}
			b = utf8.AppendRune(b, r)
		case c == '\\':
			b = append(b, unescape[s[i+1]])
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	return b
}

// unescape maps the byte after a backslash to the byte it stands for.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 reads the four hex digits of a \u escape, -1 if they are not.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// matchField returns the index of the field a key names: the exact name,
// else the first that matches case-insensitively (encoding/json's rule).
// -1 means an unknown member.
func matchField(key []byte, names []string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

func (d *wireDecoder) space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor, 0 at the end of the body (no
// value starts with 0, so every caller rejects it).
func (d *wireDecoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

func (d *wireDecoder) syntax(context string) error { return d.syntaxAt(d.off, context) }

func (d *wireDecoder) syntaxAt(off int, context string) error {
	if off >= len(d.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.data[off], context, off)
}

// mismatch reports a well-formed value of the wrong JSON type for its
// field, or a malformed one; either way the body is rejected.
func (d *wireDecoder) mismatch(what string) error {
	if d.off >= len(d.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("cannot decode value at offset %d into Go value of type %s", d.off, what)
}
