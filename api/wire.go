package api

import (
	"errors"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"calib"
)

// The solve wire codec: plain functions that (de)serialize the
// /v1/solve request and response bodies (and the /v1/cache/entries
// body built from them) without reflection. Their contract is
// encoding/json's own, pinned by differential fuzz tests:
//
//   - DecodeSolveRequest and DecodeCacheEntriesRequest accept exactly
//     the inputs json.Unmarshal accepts into a fresh value and produce
//     a reflect.DeepEqual result: member names also match under
//     encoding/json's case folding, unknown members are skipped (but
//     still syntax-checked), duplicate members apply in order, null
//     leaves a scalar alone and nils a pointer or slice, integer
//     fields take only integer literals in range, and string escapes
//     and invalid UTF-8 decode the same way.
//   - DecodeSolveResponse is json.NewDecoder(r).Decode: it reads the
//     first JSON value and ignores whatever follows it.
//   - AppendSolveRequest and AppendSolveResponse emit json.Marshal's
//     bytes exactly (HTML-safe string escapes and encoding/json's
//     float format included).
//
// Only error texts differ from encoding/json's, and how a reused
// request's spare Jobs capacity is treated (see DecodeSolveRequest).
// They are deliberately functions, not MarshalJSON/UnmarshalJSON
// methods: methods would route encoding/json itself through this code
// — on the batch and replication paths, and in the tests that use it
// as the oracle.

// maxDepth is encoding/json's nesting limit: objects and arrays nested
// deeper are a syntax error.
const maxDepth = 10000

// The member names of each wire struct, in field order (as their json
// tags spell them; TestFieldTablesMatchTags keeps the two in step).
var (
	requestFields     = []string{"instance", "timeout_ms", "budget"}
	instanceFields    = []string{"t", "m", "jobs"}
	jobFields         = []string{"id", "release", "deadline", "processing"}
	responseFields    = []string{"schedule", "calibrations", "machines_used", "lower_bound", "components", "degraded", "exact", "cached", "key", "elapsed_ms", "request_id"}
	scheduleFields    = []string{"machines", "speed", "calibrations", "placements"}
	calibrationFields = []string{"machine", "start"}
	placementFields   = []string{"job", "machine", "start"}
	entriesFields     = []string{"entries"}
	entryFields       = []string{"request", "response"}
)

// DecodeSolveRequest decodes a /v1/solve body into r exactly as
// json.Unmarshal(data, r) would, with one difference that only a
// reused r can see: Jobs capacity beyond the slice's length is zeroed
// as this call first extends into it, instead of keeping what an
// earlier request left there. A pooled r whose Instance.Jobs is
// truncated to length 0 therefore decodes as if freshly allocated.
func DecodeSolveRequest(data []byte, r *SolveRequest) error {
	d := decoder{data: data}
	d.ws()
	d.request(r)
	return d.end()
}

// DecodeSolveResponse decodes the first JSON value of data into r as
// json.NewDecoder(bytes.NewReader(data)).Decode(r) would: bytes after
// that value are not looked at, and an empty body is io.EOF.
func DecodeSolveResponse(data []byte, r *SolveResponse) error {
	d := decoder{data: data}
	d.ws()
	if d.off == len(data) {
		return io.EOF
	}
	d.response(r)
	return d.err
}

// DecodeCacheEntriesRequest decodes a JSON POST /v1/cache/entries body
// into r exactly as json.Unmarshal(data, r) would.
func DecodeCacheEntriesRequest(data []byte, r *CacheEntriesRequest) error {
	d := decoder{data: data}
	d.ws()
	d.entries(r)
	return d.end()
}

// decoder is one decode's cursor over its input. The first error
// stops it: fail keeps only that one, and every loop ends once it is
// set.
type decoder struct {
	data  []byte
	off   int
	depth int // objects and arrays open at off
	err   error
	key   []byte // the member name last read, unquoted
	buf   []byte // unquoting scratch
	// Per slice kind, one past the highest element index this decode
	// has handed out (see elem).
	jobsHW, calsHW, placesHW, entriesHW int
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = errors.New("api: " + msg + " (offset " + strconv.Itoa(d.off) + ")")
	}
}

// syntax reports the byte at off as unexpected.
func (d *decoder) syntax() {
	if d.off >= len(d.data) {
		d.fail("unexpected end of JSON input")
		return
	}
	d.fail("invalid character " + strconv.QuoteRune(rune(d.data[d.off])))
}

// mismatch reports that the value at off cannot go where it is: a
// type error when it is a well-started JSON value, else a syntax one.
func (d *decoder) mismatch(want string) {
	var kind string
	switch c := d.peek(); {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "boolean"
	case c == '-' || '0' <= c && c <= '9':
		kind = "number"
	default:
		d.syntax()
		return
	}
	d.fail("cannot decode " + kind + " into " + strconv.Quote(string(d.key)) + " (want " + want + ")")
}

// peek returns the byte at off, or 0 at the end of the input.
func (d *decoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// end checks that only whitespace follows the top-level value.
func (d *decoder) end() error {
	if d.err == nil {
		d.ws()
		if d.off < len(d.data) {
			d.fail("invalid character " + strconv.QuoteRune(rune(d.data[d.off])) + " after top-level value")
		}
	}
	return d.err
}

func (d *decoder) push() bool {
	d.depth++
	if d.depth > maxDepth {
		d.fail("exceeded max depth")
		return false
	}
	return true
}

// name reads a member name and its colon, leaving off at the value.
func (d *decoder) name() bool {
	if d.peek() != '"' {
		d.syntax()
		return false
	}
	d.key = d.str()
	d.ws()
	if d.err != nil || d.peek() != ':' {
		d.syntax()
		return false
	}
	d.off++
	d.ws()
	return true
}

// nextMember steps past a member's value to the next member (true,
// with its name in key and off at its value) or past the object's
// closing brace (false).
func (d *decoder) nextMember() bool {
	if d.err != nil {
		return false
	}
	d.ws()
	switch d.peek() {
	case ',':
		d.off++
		d.ws()
		return d.name()
	case '}':
		d.off++
		d.depth--
		return false
	}
	d.syntax()
	return false
}

// first opens the object at off, to be decoded into a struct whose
// member names are names, and returns the index of its first member
// that names one of them, with off at that member's value. It returns
// -1 after null, past an object with no such member, or on an error.
func (d *decoder) first(names []string) int {
	switch d.peek() {
	case '{':
		d.off++
		if !d.push() {
			return -1
		}
		d.ws()
		if d.peek() == '}' {
			d.off++
			d.depth--
			return -1
		}
		if !d.name() {
			return -1
		}
		return d.known(names)
	case 'n':
		d.literal("null")
		return -1
	}
	d.mismatch("object")
	return -1
}

// next is first for the members after the one just decoded.
func (d *decoder) next(names []string) int {
	if !d.nextMember() {
		return -1
	}
	return d.known(names)
}

// known returns the field index of the member at hand, or of the first
// later one a field takes: members no field takes are skipped, their
// values still checked, as encoding/json does.
func (d *decoder) known(names []string) int {
	for {
		if i := d.field(names); i >= 0 {
			return i
		}
		d.skip()
		if !d.nextMember() {
			return -1
		}
	}
}

// openArray opens the array at off for the slice *s. It reports true
// with off at the first element; otherwise it has already applied
// null (*s = nil) or an empty array (a new empty slice, as
// encoding/json makes), or hit an error.
func openArray[T any](d *decoder, s *[]T) bool {
	switch d.peek() {
	case '[':
		d.off++
		if !d.push() {
			return false
		}
		d.ws()
		if d.peek() == ']' {
			d.off++
			d.depth--
			*s = []T{}
			return false
		}
		return true
	case 'n':
		if d.literal("null") {
			*s = nil
		}
		return false
	}
	d.mismatch("array")
	return false
}

// nextElem steps past an element to the next one (true) or past the
// array's closing bracket (false).
func (d *decoder) nextElem() bool {
	if d.err != nil {
		return false
	}
	d.ws()
	switch d.peek() {
	case ',':
		d.off++
		d.ws()
		return true
	case ']':
		d.off++
		d.depth--
		return false
	}
	d.syntax()
	return false
}

// elem returns element i of *s to decode array element i into, the
// way encoding/json does: an existing element is decoded over, and
// past the length *s is extended into its capacity (whose contents
// encoding/json keeps) or grown. Capacity at or beyond *hw, which no
// earlier array of this decode reached, is zeroed first: there the
// contents are a reused buffer's leftovers, not this input's. The
// caller truncates *s to the element count at the end.
func elem[T any](s *[]T, i int, hw *int) *T {
	v := *s
	switch {
	case i < len(v):
	case i < cap(v):
		v = v[:i+1]
		if i >= *hw {
			var zero T
			v[i] = zero
		}
	default:
		var zero T
		v = append(v, zero)
	}
	if i >= *hw {
		*hw = i + 1
	}
	*s = v
	return &v[i]
}

// ptr readies pointer field *p for the value at off as encoding/json
// does: null sets it to nil and an object decodes into the existing
// target, or a new one. It returns the target, or nil when there is
// nothing to decode.
func ptr[T any](d *decoder, p **T) *T {
	switch d.peek() {
	case 'n':
		if d.literal("null") {
			*p = nil
		}
		return nil
	case '{':
		if *p == nil {
			*p = new(T)
		}
		return *p
	}
	d.mismatch("object")
	return nil
}

// field returns the index of the member name in names (-1 if none),
// matched as encoding/json matches: exactly, else under Unicode simple
// case folding (its foldName equality is EqualFold), so "T",
// "inſtance" and "Key" name t, instance and key.
func (d *decoder) field(names []string) int {
	for i, n := range names {
		if string(d.key) == n {
			return i
		}
	}
	for i, n := range names {
		if strings.EqualFold(string(d.key), n) {
			return i
		}
	}
	return -1
}

// literal consumes lit (true, false or null) at off.
func (d *decoder) literal(lit string) bool {
	for i := 0; i < len(lit); i++ {
		if d.peek() != lit[i] {
			d.syntax()
			return false
		}
		d.off++
	}
	return true
}

// scanStr steps over the string at off (which holds its opening
// quote) and returns its raw contents; plain reports that they are
// their own decoded value (no escapes, ASCII only).
func (d *decoder) scanStr() (raw []byte, plain bool) {
	start := d.off + 1
	plain = true
	for i := start; i < len(d.data); {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			return d.data[start:i], plain
		case c == '\\':
			plain = false
			i++
			if i >= len(d.data) {
				break
			}
			switch d.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				for k := 1; k <= 4; k++ {
					if i+k >= len(d.data) || hexVal(d.data[i+k]) < 0 {
						d.off = i + k
						d.syntax()
						return nil, false
					}
				}
				i += 5
			default:
				d.off = i
				d.syntax()
				return nil, false
			}
		case c < 0x20:
			d.off = i
			d.syntax()
			return nil, false
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			i++
		}
	}
	d.off = len(d.data)
	d.syntax()
	return nil, false
}

// str reads the string at off and returns its decoded bytes, which
// stay valid until the next str call.
func (d *decoder) str() []byte {
	raw, plain := d.scanStr()
	if plain || d.err != nil {
		return raw
	}
	d.buf = unquote(d.buf[:0], raw)
	return d.buf
}

func hexVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// u4 decodes the \uXXXX escape at the start of s, or returns -1.
func u4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		h := hexVal(c)
		if h < 0 {
			return -1
		}
		r = r*16 + h
	}
	return r
}

// unquote appends the decoded value of a scanned string's raw
// contents to b as encoding/json decodes it: a \u surrogate pair
// becomes one rune, a lone surrogate U+FFFD, and each byte of invalid
// UTF-8 U+FFFD.
func unquote(b, s []byte) []byte {
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			switch s[r+1] {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := u4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, u4(s[r:])); dec != unicode.ReplacementChar {
						r += 6
						b = utf8.AppendRune(b, dec)
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, s[r+1])
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	return b
}

// number steps over the JSON number at off and returns it; isInt
// reports that it has neither fraction nor exponent.
func (d *decoder) number() (tok []byte, isInt bool) {
	start, i, n := d.off, d.off, len(d.data)
	digits := func() bool {
		if i >= n || d.data[i] < '0' || d.data[i] > '9' {
			d.off = i
			d.syntax()
			return false
		}
		for i < n && '0' <= d.data[i] && d.data[i] <= '9' {
			i++
		}
		return true
	}
	if i < n && d.data[i] == '-' {
		i++
	}
	if i < n && d.data[i] == '0' {
		i++
	} else if !digits() {
		return nil, false
	}
	isInt = true
	if i < n && d.data[i] == '.' {
		isInt = false
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < n && (d.data[i] == 'e' || d.data[i] == 'E') {
		isInt = false
		i++
		if i < n && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	d.off = i
	return d.data[start:i], isInt
}

// skip validates and steps over one value of any shape, as
// encoding/json does for a member no field takes.
func (d *decoder) skip() {
	var arr [16]byte
	open := arr[:0] // closing bytes of the containers skip has entered
	for d.err == nil {
		switch c := d.peek(); {
		case c == '{' || c == '[':
			d.off++
			if !d.push() {
				return
			}
			d.ws()
			closer := c + 2 // '}' or ']'
			if d.peek() != closer {
				open = append(open, closer)
				if c == '{' {
					d.name()
				}
				continue
			}
			d.off++
			d.depth--
		case c == '"':
			d.scanStr()
		case c == 't':
			d.literal("true")
		case c == 'f':
			d.literal("false")
		case c == 'n':
			d.literal("null")
		case c == '-' || '0' <= c && c <= '9':
			d.number()
		default:
			d.syntax()
		}
		// After a value: close the containers it ends, or step to
		// the next value of the innermost one.
		for d.err == nil {
			if len(open) == 0 {
				return
			}
			d.ws()
			closer := open[len(open)-1]
			switch d.peek() {
			case closer:
				d.off++
				d.depth--
				open = open[:len(open)-1]
				continue
			case ',':
				d.off++
				d.ws()
				if closer == '}' {
					d.name()
				}
			default:
				d.syntax()
			}
			break
		}
	}
}

// readInt decodes an integer field: only an integer literal that fits
// T, as encoding/json's strconv.ParseInt and overflow check allow.
func readInt[T int | int64](d *decoder, p *T) {
	switch c := d.peek(); {
	case c == 'n':
		d.literal("null")
		return
	case c != '-' && (c < '0' || c > '9'):
		d.mismatch("integer")
		return
	}
	tok, isInt := d.number()
	if d.err != nil {
		return
	}
	var v int64
	ok := isInt
	if ok {
		digits := tok
		if tok[0] == '-' {
			digits = tok[1:]
		}
		if len(digits) <= 18 { // cannot overflow int64
			for _, c := range digits {
				v = v*10 + int64(c-'0')
			}
			if tok[0] == '-' {
				v = -v
			}
		} else {
			var err error
			v, err = strconv.ParseInt(string(tok), 10, 64)
			ok = err == nil
		}
	}
	t := T(v)
	if !ok || int64(t) != v {
		d.fail("cannot decode number " + string(tok) + " into integer field " + strconv.Quote(string(d.key)))
		return
	}
	*p = t
}

func (d *decoder) float(p *float64) {
	switch c := d.peek(); {
	case c == 'n':
		d.literal("null")
		return
	case c != '-' && (c < '0' || c > '9'):
		d.mismatch("number")
		return
	}
	tok, _ := d.number()
	if d.err != nil {
		return
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.fail("cannot decode number " + string(tok) + " into float64 field " + strconv.Quote(string(d.key)))
		return
	}
	*p = f
}

func (d *decoder) bool(p *bool) {
	switch d.peek() {
	case 't':
		if d.literal("true") {
			*p = true
		}
	case 'f':
		if d.literal("false") {
			*p = false
		}
	case 'n':
		d.literal("null")
	default:
		d.mismatch("boolean")
	}
}

func (d *decoder) string(p *string) {
	switch d.peek() {
	case '"':
		if s := d.str(); d.err == nil {
			*p = string(s)
		}
	case 'n':
		d.literal("null")
	default:
		d.mismatch("string")
	}
}

func (d *decoder) request(r *SolveRequest) {
	for f := d.first(requestFields); f >= 0; f = d.next(requestFields) {
		switch f {
		case 0:
			if in := ptr(d, &r.Instance); in != nil {
				d.instance(in)
			}
		case 1:
			readInt(d, &r.TimeoutMillis)
		case 2:
			readInt(d, &r.Budget)
		}
	}
}

func (d *decoder) instance(in *calib.Instance) {
	for f := d.first(instanceFields); f >= 0; f = d.next(instanceFields) {
		switch f {
		case 0:
			readInt(d, &in.T)
		case 1:
			readInt(d, &in.M)
		case 2:
			n := 0
			for more := openArray(d, &in.Jobs); more; more = d.nextElem() {
				d.job(elem(&in.Jobs, n, &d.jobsHW))
				n++
			}
			in.Jobs = in.Jobs[:n]
		}
	}
}

func (d *decoder) job(j *calib.Job) {
	for f := d.first(jobFields); f >= 0; f = d.next(jobFields) {
		switch f {
		case 0:
			readInt(d, &j.ID)
		case 1:
			readInt(d, &j.Release)
		case 2:
			readInt(d, &j.Deadline)
		case 3:
			readInt(d, &j.Processing)
		}
	}
}

func (d *decoder) response(r *SolveResponse) {
	for f := d.first(responseFields); f >= 0; f = d.next(responseFields) {
		switch f {
		case 0:
			if s := ptr(d, &r.Schedule); s != nil {
				d.schedule(s)
			}
		case 1:
			readInt(d, &r.Calibrations)
		case 2:
			readInt(d, &r.MachinesUsed)
		case 3:
			readInt(d, &r.LowerBound)
		case 4:
			readInt(d, &r.Components)
		case 5:
			d.bool(&r.Degraded)
		case 6:
			d.bool(&r.Exact)
		case 7:
			d.bool(&r.Cached)
		case 8:
			d.string(&r.Key)
		case 9:
			d.float(&r.ElapsedMillis)
		case 10:
			d.string(&r.RequestID)
		}
	}
}

func (d *decoder) schedule(s *calib.Schedule) {
	for f := d.first(scheduleFields); f >= 0; f = d.next(scheduleFields) {
		switch f {
		case 0:
			readInt(d, &s.Machines)
		case 1:
			readInt(d, &s.Speed)
		case 2:
			n := 0
			for more := openArray(d, &s.Calibrations); more; more = d.nextElem() {
				d.calibration(elem(&s.Calibrations, n, &d.calsHW))
				n++
			}
			s.Calibrations = s.Calibrations[:n]
		case 3:
			n := 0
			for more := openArray(d, &s.Placements); more; more = d.nextElem() {
				d.placement(elem(&s.Placements, n, &d.placesHW))
				n++
			}
			s.Placements = s.Placements[:n]
		}
	}
}

func (d *decoder) calibration(c *calib.Calibration) {
	for f := d.first(calibrationFields); f >= 0; f = d.next(calibrationFields) {
		switch f {
		case 0:
			readInt(d, &c.Machine)
		case 1:
			readInt(d, &c.Start)
		}
	}
}

func (d *decoder) placement(p *calib.Placement) {
	for f := d.first(placementFields); f >= 0; f = d.next(placementFields) {
		switch f {
		case 0:
			readInt(d, &p.Job)
		case 1:
			readInt(d, &p.Machine)
		case 2:
			readInt(d, &p.Start)
		}
	}
}

func (d *decoder) entries(r *CacheEntriesRequest) {
	for f := d.first(entriesFields); f >= 0; f = d.next(entriesFields) {
		n := 0
		for more := openArray(d, &r.Entries); more; more = d.nextElem() {
			e := elem(&r.Entries, n, &d.entriesHW)
			n++
			for f := d.first(entryFields); f >= 0; f = d.next(entryFields) {
				if f == 0 {
					if req := ptr(d, &e.Request); req != nil {
						d.request(req)
					}
				} else if resp := ptr(d, &e.Response); resp != nil {
					d.response(resp)
				}
			}
		}
		r.Entries = r.Entries[:n]
	}
}

// AppendSolveRequest appends json.Marshal(r)'s bytes to dst.
func AppendSolveRequest(dst []byte, r *SolveRequest) []byte {
	if r == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, `{"instance":`...)
	if in := r.Instance; in == nil {
		dst = append(dst, "null"...)
	} else {
		dst = appendInt(dst, `{"t":`, in.T)
		dst = appendInt(dst, `,"m":`, int64(in.M))
		dst = append(dst, `,"jobs":`...)
		dst = appendArray(dst, in.Jobs, func(b []byte, j *calib.Job) []byte {
			b = appendInt(b, `{"id":`, int64(j.ID))
			b = appendInt(b, `,"release":`, j.Release)
			b = appendInt(b, `,"deadline":`, j.Deadline)
			b = appendInt(b, `,"processing":`, j.Processing)
			return append(b, '}')
		})
		dst = append(dst, '}')
	}
	if r.TimeoutMillis != 0 {
		dst = appendInt(dst, `,"timeout_ms":`, r.TimeoutMillis)
	}
	if r.Budget != 0 {
		dst = appendInt(dst, `,"budget":`, r.Budget)
	}
	return append(dst, '}')
}

// AppendSolveResponse appends json.Marshal(r)'s bytes to dst. Like
// json.Marshal it fails on a NaN or infinite ElapsedMillis, returning
// dst unchanged.
func AppendSolveResponse(dst []byte, r *SolveResponse) ([]byte, error) {
	if r == nil {
		return append(dst, "null"...), nil
	}
	if f := r.ElapsedMillis; math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, errors.New("api: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	dst = append(dst, `{"schedule":`...)
	if s := r.Schedule; s == nil {
		dst = append(dst, "null"...)
	} else {
		dst = appendInt(dst, `{"machines":`, int64(s.Machines))
		dst = appendInt(dst, `,"speed":`, s.Speed)
		dst = append(dst, `,"calibrations":`...)
		dst = appendArray(dst, s.Calibrations, func(b []byte, c *calib.Calibration) []byte {
			b = appendInt(b, `{"machine":`, int64(c.Machine))
			b = appendInt(b, `,"start":`, c.Start)
			return append(b, '}')
		})
		dst = append(dst, `,"placements":`...)
		dst = appendArray(dst, s.Placements, func(b []byte, p *calib.Placement) []byte {
			b = appendInt(b, `{"job":`, int64(p.Job))
			b = appendInt(b, `,"machine":`, int64(p.Machine))
			b = appendInt(b, `,"start":`, p.Start)
			return append(b, '}')
		})
		dst = append(dst, '}')
	}
	dst = appendInt(dst, `,"calibrations":`, int64(r.Calibrations))
	dst = appendInt(dst, `,"machines_used":`, int64(r.MachinesUsed))
	dst = appendInt(dst, `,"lower_bound":`, int64(r.LowerBound))
	dst = appendInt(dst, `,"components":`, int64(r.Components))
	dst = append(dst, `,"degraded":`...)
	dst = strconv.AppendBool(dst, r.Degraded)
	dst = append(dst, `,"exact":`...)
	dst = strconv.AppendBool(dst, r.Exact)
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, r.Cached)
	dst = append(dst, `,"key":`...)
	dst = appendString(dst, r.Key)
	dst = append(dst, `,"elapsed_ms":`...)
	dst = appendFloat(dst, r.ElapsedMillis)
	if r.RequestID != "" {
		dst = append(dst, `,"request_id":`...)
		dst = appendString(dst, r.RequestID)
	}
	return append(dst, '}'), nil
}

// appendInt appends a member's name (with its separators) and its
// integer value.
func appendInt(dst []byte, member string, v int64) []byte {
	return strconv.AppendInt(append(dst, member...), v, 10)
}

// appendArray appends s as a JSON array (null when nil), one elem call
// per element.
func appendArray[T any](dst []byte, s []T, elem func([]byte, *T) []byte) []byte {
	if s == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range s {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(dst, &s[i])
	}
	return append(dst, ']')
}

// appendFloat formats a finite float64 as encoding/json does (ES6
// number-to-string): 'f' in [1e-6, 1e21), otherwise 'e' with the
// exponent's leading zero dropped.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendString appends s as a JSON string the way json.Marshal does:
// HTML-safe, so <, > and & are \u escapes, as are U+2028 and U+2029,
// and each byte of invalid UTF-8 becomes the escape \ufffd.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, "\\ufffd"...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
