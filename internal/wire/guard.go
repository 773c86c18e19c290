package wire

import (
	"errors"
	"reflect"
)

// Guard walks each message body of one gob stream the way the stream's
// gob.Decoder is about to, before it does: a Conn's frames, or the records
// of a store segment. gob sizes its allocations by the counts the sender
// announces — a map takes its whole announced size up front, a slice or a
// message buffer up to 10 MiB — so one checksummed-but-corrupt count (a
// hostile peer, or a corruption CRC32C misses) could cost gigabytes. The
// walk reads every count, element and byte the decoder will, so a body it
// accepts announces nothing it does not carry: what the decode allocates
// is bounded by the body's size. It rejects instead of modelling what a
// stream between two ends registering the same types never contains: a
// wire field the destination struct lacks, an array type, and nesting
// deeper than maxDepth.
//
// The walk follows the Go types, not the wire table alone, because the
// decoder reads a skipped interface value differently from a decoded one:
// it drops the value's byte count, but when ops nested in the value
// introduce types (a transaction's first Withdraw), gob splits the value
// into count-delimited segments and that count covers only the first. Only
// the destination struct says which of the two readings the decoder takes.
//
// The guard keeps its own copy of the stream's type table, read from the
// same definitions the decoder reads, so one Guard serves one stream from
// its start. The zero value is ready to use.
type Guard struct {
	defs map[int64]*typeDef
}

// gob's predefined type ids (encoding/gob's bootstrap types, fixed by the
// wire format) and the first id a stream may define.
const (
	gobBool      = 1
	gobInt       = 2
	gobUint      = 3
	gobFloat     = 4
	gobBytes     = 5
	gobString    = 6
	gobComplex   = 7
	gobInterface = 8
	gobFirstUser = 64
)

// maxDepth bounds the nesting the guard (and so the decoder) follows.
const maxDepth = 100

var errShape = errors.New("gob body announces more than it carries, or a type or field the receiver cannot follow")

var envelopeType = reflect.TypeFor[Envelope]()

// defKind is the shape of one stream-defined type.
type defKind uint8

const (
	defStruct defKind = iota + 1
	defSlice
	defMap
	defOpaque // GobEncoder, BinaryMarshaler, TextMarshaler: length-prefixed bytes
)

// typeDef is one type definition received on the stream (gob's wireType).
type typeDef struct {
	kind  defKind
	elem  int64    // slice and map element type id
	key   int64    // map key type id
	names []string // struct field names, in wire order
	ids   []int64  // struct field type ids, in wire order

	// goType is the Go struct this definition last decoded into, and
	// goFields its field types in wire order.
	goType   reflect.Type
	goFields []reflect.Type
}

// Check walks one body: type-definition messages, each filling its
// message, then the message holding the value, which decodes into Go type
// root.
func (g *Guard) Check(body []byte, root reflect.Type) error {
	if g.defs == nil {
		g.defs = make(map[int64]*typeDef)
	}
	w := walker{g: g, rest: body}
	for w.message() {
		id := w.int()
		if id >= 0 {
			w.structValue(id, root, 0)
			break
		}
		if w.define(-id); len(w.cur) != 0 {
			w.fail()
		}
	}
	if w.bad {
		return errShape
	}
	return nil
}

// walker is one pass over one body. The first failure empties it, so every
// later read fails too and every loop ends.
type walker struct {
	g    *Guard
	cur  []byte // unread rest of the gob message being decoded
	rest []byte // the messages after it
	bad  bool
}

func (w *walker) fail() { w.bad, w.cur, w.rest = true, nil, nil }

// message steps to the next count-delimited message.
func (w *walker) message() bool {
	n, ok := readUint(&w.rest)
	if !ok || n > uint64(len(w.rest)) {
		w.fail()
		return false
	}
	w.cur, w.rest = w.rest[:n], w.rest[n:]
	return true
}

// readUint reads one gob unsigned integer: a byte below 0x80 is the value,
// otherwise its negation is the count of big-endian bytes that follow.
func readUint(b *[]byte) (uint64, bool) {
	s := *b
	if len(s) == 0 {
		return 0, false
	}
	if s[0] < 0x80 {
		*b = s[1:]
		return uint64(s[0]), true
	}
	n := -int(int8(s[0]))
	if n > 8 || len(s) <= n {
		return 0, false
	}
	var x uint64
	for _, c := range s[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	*b = s[1+n:]
	return x, true
}

func (w *walker) uint() uint64 {
	x, ok := readUint(&w.cur)
	if !ok {
		w.fail()
	}
	return x
}

func (w *walker) int() int64 {
	x := w.uint()
	if x&1 != 0 {
		return ^int64(x >> 1)
	}
	return int64(x >> 1)
}

// count reads a length, which must not exceed the bytes left in the body:
// every element and entry it counts takes at least one. Not necessarily in
// this message, though: when a value nested in an interface introduces a
// type, gob flushes the message it is building right after the type's
// definition, and the value carries on in the next message (see iface).
func (w *walker) count() int {
	n := w.uint()
	if n > uint64(len(w.cur)+len(w.rest)) {
		w.fail()
		return 0
	}
	return int(n)
}

// bytes reads a length-prefixed string or byte slice, which gob never
// splits across messages.
func (w *walker) bytes() []byte {
	n := w.count()
	if n > len(w.cur) {
		w.fail()
		return nil
	}
	b := w.cur[:n]
	w.cur = w.cur[n:]
	return b
}

// fields walks one struct of n fields: field-number deltas, each followed
// by that field's value, until a zero delta or the end of the message.
func (w *walker) fields(n int, field func(i int)) {
	for i := -1; len(w.cur) > 0; {
		delta := w.uint()
		if delta == 0 {
			return
		}
		if delta >= uint64(n-i) {
			w.fail()
			return
		}
		i += int(delta)
		field(i)
	}
}

// elems walks n slice elements or map entries, each of which must start
// inside the message.
func (w *walker) elems(n int, elem func()) {
	for ; n > 0 && !w.bad; n-- {
		if len(w.cur) == 0 {
			w.fail()
			return
		}
		elem()
	}
}

// value walks one value of wire type id decoding into Go type t.
func (w *walker) value(id int64, t reflect.Type, depth int) {
	if depth > maxDepth {
		w.fail()
		return
	}
	for t.Kind() == reflect.Pointer {
		t = t.Elem() // gob sends what a pointer points to
	}
	switch id {
	case gobBool, gobInt, gobUint, gobFloat:
		w.uint()
		return
	case gobComplex:
		w.uint()
		w.uint()
		return
	case gobBytes, gobString:
		w.bytes()
		return
	case gobInterface:
		w.iface(depth)
		return
	}
	d := w.g.defs[id]
	switch {
	case d == nil:
		w.fail()
	case d.kind == defStruct:
		w.structValue(id, t, depth)
	case d.kind == defSlice && t.Kind() == reflect.Slice:
		w.elems(w.count(), func() { w.value(d.elem, t.Elem(), depth+1) })
	case d.kind == defMap && t.Kind() == reflect.Map:
		w.elems(w.count(), func() {
			w.value(d.key, t.Key(), depth+1)
			w.value(d.elem, t.Elem(), depth+1)
		})
	case d.kind == defOpaque:
		w.bytes()
	default:
		w.fail()
	}
}

// structValue walks one struct value of wire type id decoding into t,
// matching wire fields to t's by name as the decoder does.
func (w *walker) structValue(id int64, t reflect.Type, depth int) {
	d := w.g.defs[id]
	if d == nil || d.kind != defStruct || t.Kind() != reflect.Struct {
		w.fail()
		return
	}
	if d.goType != t {
		goFields := make([]reflect.Type, len(d.names))
		for i, name := range d.names {
			f, ok := t.FieldByName(name)
			if !ok || !f.IsExported() {
				w.fail() // the decoder would skip it; see guard
				return
			}
			goFields[i] = f.Type
		}
		d.goType, d.goFields = t, goFields
	}
	w.fields(len(d.ids), func(i int) { w.value(d.ids[i], d.goFields[i], depth+1) })
}

// iface walks one interface value: the registered name of its concrete
// type (empty for nil), the definitions the value introduces — a message
// boundary may fall among them, and inside a message each is followed by a
// delimiter count — its type id, a byte count the decoder ignores, then
// the value: a struct as such, anything else behind a zero field delta.
func (w *walker) iface(depth int) {
	name := w.bytes()
	if len(name) == 0 {
		return
	}
	t := concreteTypes[string(name)]
	if t == nil {
		w.fail()
		return
	}
	id := int64(-1)
	for id < 0 && !w.bad {
		if len(w.cur) == 0 && !w.message() {
			return
		}
		if id = w.int(); id < 0 {
			if w.define(-id); len(w.cur) > 0 {
				w.uint()
			}
		}
	}
	w.uint()
	// No registered type decodes itself (GobDecoder and kin), so a struct
	// type is decoded field by field.
	if t.Kind() == reflect.Struct {
		w.structValue(id, t, depth+1)
	} else if w.uint() != 0 {
		w.fail()
	} else {
		w.value(id, t, depth+1)
	}
}

// define reads one type definition — gob's wireType, a struct whose one
// set field is an ArrayT, SliceT, StructT or MapT description or one of
// three encoder-type markers — and adds it to the table.
func (w *walker) define(id int64) {
	if id < gobFirstUser || w.g.defs[id] != nil {
		w.fail() // the decoder refuses a redefinition too
		return
	}
	d := new(typeDef)
	w.fields(7, func(i int) {
		if d.kind != 0 {
			w.fail() // a second description
			return
		}
		switch i {
		case 1: // SliceT {CommonType, Elem}
			d.kind = defSlice
			w.described(&d.elem)
		case 2: // StructT {CommonType, Field []fieldType{Name, Id}}
			d.kind = defStruct
			w.fields(2, func(j int) {
				if j == 0 {
					w.common()
				} else {
					w.structFields(d)
				}
			})
		case 3: // MapT {CommonType, Key, Elem}
			d.kind = defMap
			w.described(&d.key, &d.elem)
		case 4, 5, 6: // GobEncoderT, BinaryMarshalerT, TextMarshalerT {CommonType}
			d.kind = defOpaque
			w.described()
		default: // ArrayT: no type the transport carries has an array
			w.fail()
		}
	})
	if d.kind == 0 {
		w.fail()
	}
	if !w.bad {
		w.g.defs[id] = d
	}
}

// structFields reads a StructT's field list into d.
func (w *walker) structFields(d *typeDef) {
	w.elems(w.count(), func() {
		var name []byte
		var id int64
		w.fields(2, func(j int) {
			if j == 0 {
				name = w.bytes()
			} else {
				id = w.int()
			}
		})
		d.names = append(d.names, string(name))
		d.ids = append(d.ids, id)
	})
}

// described reads a type description: a CommonType, then type ids into
// ids, in order.
func (w *walker) described(ids ...*int64) {
	w.fields(1+len(ids), func(j int) {
		if j == 0 {
			w.common()
		} else {
			*ids[j-1] = w.int()
		}
	})
}

// common reads a CommonType {Name, Id}; the decoder keys definitions by
// the id that introduced them, not by these.
func (w *walker) common() {
	w.fields(2, func(j int) {
		if j == 0 {
			w.bytes()
		} else {
			w.int()
		}
	})
}
