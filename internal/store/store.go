// Package store is the stable storage of a replica process: a mirrored,
// append-only write-ahead log of gob records.
//
// The log is a sequence of numbered segments. A segment starts with a base
// record holding one whole value (Save) and grows by the records appended
// after it (Append); what a record means relative to the ones before it is
// the caller's business. A segment's records form one gob stream, so each
// type descriptor is written once per segment, and each record is framed
// with a length and a CRC32C, so a torn tail or a rotten byte is detected,
// never misread.
//
// Every segment is kept twice (twin logs): a write goes to copy A, then to
// copy B, each opened O_DSYNC so a write returns only once it is durable.
// Replay takes, at each offset of the newest segment, the record of
// whichever copy verifies there; a segment whose base verifies in neither
// copy is skipped for the one before; nothing left means "bootstrap from
// peers". One torn or rotten file can therefore never retract a record a
// write acknowledged. Records are walked by wire's gob guard before they
// decode, so a corrupt record cannot make gob allocate more than its bytes
// carry. Interface-typed fields need their concrete types registered
// (internal/wire registers the protocol types).
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"syscall"

	"bayou/internal/wire"
)

// Suffix is the segment file extension; .gitignore and the CI oversize
// guard key on it.
const Suffix = ".bayou-snap"

// DefaultKeep is how many segments Open retains when the caller passes
// keep <= 0: the live one, the fallback, and one more so a torn base during
// pruning still leaves a fallback.
const DefaultKeep = 3

// growLimit is how many times its base record's size a segment may grow to
// before NeedBase asks for a new one, so boot never replays more than a few
// bases' worth of records.
const growLimit = 8

// File format, the same in both copies: fileHeader (magic "BYWL",
// big-endian version 2), then per record a big-endian uint32 body length,
// a uint32 CRC32C over the body, and the body (the record's gob messages).
var fileHeader = []byte("BYWL\x00\x00\x00\x02")

const recHeaderLen = 4 + 4

// castagnoli is the CRC32C table.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Store manages the segments inside one directory. Safe for concurrent
// use; writes are serialized.
type Store struct {
	dir  string
	keep int

	mu      sync.Mutex
	nextGen int64    // guarded by mu
	seg     *segment // guarded by mu; the segment Append extends
}

// segment is the open end of the log: both copies and the gob stream they
// share.
type segment struct {
	files    [2]*os.File
	enc      *gob.Encoder // writes into buf
	buf      bytes.Buffer // the bytes of the write in progress
	size     int          // bytes in each copy
	baseSize int          // bytes of the file header and the base record
}

// Open prepares dir (creating it if needed) and scans the existing
// segments so fresh saves continue the sequence instead of colliding with
// survivors of an earlier incarnation. No segment is open for Append until
// the first Save.
func Open(dir string, keep int) (*Store, error) {
	if keep <= 0 {
		keep = DefaultKeep
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{dir: dir, keep: keep, nextGen: 1}
	gens, err := s.Generations()
	if err != nil {
		return nil, err
	}
	if len(gens) > 0 {
		s.nextGen = gens[len(gens)-1] + 1
	}
	return s, nil
}

// Path returns the file one copy of a segment lives under (twin 0 is copy
// A, 1 copy B), whether or not it exists; the torn-write tests corrupt
// segments through it.
func (s *Store) Path(gen int64, twin int) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%016d.%c%s", gen, 'a'+twin, Suffix))
}

// Generations lists the segments present on disk (either copy), ascending.
func (s *Store) Generations() ([]int64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", s.dir, err)
	}
	var gens []int64
	for _, e := range entries {
		var gen int64
		var twin rune
		_, err := fmt.Sscanf(e.Name(), "wal-%d.%c", &gen, &twin)
		if err == nil && gen > 0 && (twin == 'a' || twin == 'b') && !e.IsDir() && e.Name() == filepath.Base(s.Path(gen, int(twin-'a'))) {
			gens = append(gens, gen)
		}
	}
	slices.Sort(gens)
	return slices.Compact(gens), nil
}

// Save starts a new segment with v as its base and returns the segment's
// number: both copies are created, written and synced in turn, then the
// directory is synced and segments beyond keep are deleted. Later Appends
// extend this segment. A crash mid-save leaves a segment whose base
// verifies in neither copy or in one, and boot's ladder handles both.
func (s *Store) Save(v any) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeLocked()
	gen := s.nextGen
	s.nextGen++
	g := &segment{}
	g.enc = gob.NewEncoder(&g.buf)
	g.buf.Write(fileHeader)
	s.seg = g
	for twin := range g.files {
		f, err := os.OpenFile(s.Path(gen, twin), os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND|syscall.O_DSYNC, 0o644)
		if err != nil {
			s.closeLocked()
			return 0, fmt.Errorf("store: create segment: %w", err)
		}
		g.files[twin] = f
	}
	if err := s.putLocked(v); err != nil {
		return 0, err
	}
	g.baseSize = g.size
	// Sync the directory so the new files survive power loss (best effort:
	// where it is refused, the segment numbers still order them), then
	// delete the oldest segments beyond keep.
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
	gens, _ := s.Generations()
	for ; len(gens) > s.keep; gens = gens[1:] {
		os.Remove(s.Path(gens[0], 0))
		os.Remove(s.Path(gens[0], 1))
	}
	return gen, nil
}

// Append adds v as the next record of the segment the last Save started,
// returning once both copies hold it durably. Any failed write closes the
// segment: every later Append fails too, since retrying a sync that failed
// would not make the earlier write durable.
func (s *Store) Append(v any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return errors.New("store: no open segment (no base written yet, or an earlier write failed)")
	}
	return s.putLocked(v)
}

// NeedBase reports whether the next write must be a Save: no segment is
// open, or the open one has grown past growLimit times its base.
func (s *Store) NeedBase() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seg == nil || s.seg.size > growLimit*s.seg.baseSize
}

// Close releases the open segment's files; the next write must be a Save.
func (s *Store) Close() {
	s.mu.Lock()
	s.closeLocked()
	s.mu.Unlock()
}

func (s *Store) closeLocked() {
	if s.seg != nil {
		for _, f := range s.seg.files {
			f.Close() // a nil *os.File (a copy never created) returns ErrInvalid
		}
		s.seg = nil
	}
}

// putLocked frames v as the open segment's next record after whatever buf
// holds, then appends buf to copy A and to copy B; O_DSYNC makes each
// durable before the next begins. A failure closes the segment.
func (s *Store) putLocked(v any) error {
	g := s.seg
	defer g.buf.Reset()
	start := g.buf.Len()
	g.buf.Write(make([]byte, recHeaderLen))
	err := g.enc.Encode(v)
	if err == nil {
		rec := g.buf.Bytes()[start:]
		binary.BigEndian.PutUint32(rec[0:4], uint32(len(rec)-recHeaderLen))
		binary.BigEndian.PutUint32(rec[4:8], crc32.Checksum(rec[recHeaderLen:], castagnoli))
		for _, f := range g.files {
			if _, err = f.Write(g.buf.Bytes()); err != nil {
				break
			}
		}
	}
	if err != nil {
		s.closeLocked()
		return fmt.Errorf("store: %w", err)
	}
	g.size += g.buf.Len()
	return nil
}

// Load decodes the base record of the newest intact segment into v and
// returns the segment's number; see Replay.
func (s *Store) Load(v any) (gen int64, ok bool, err error) {
	return s.Replay(v, nil)
}

// Replay rebuilds what the newest intact segment holds: its base decodes
// into base, then next is called per following record with a function that
// decodes it into a value of next's choice. It ends at the first offset
// where neither copy verifies, or where decoding or next fails; what came
// before stands. ok=false (with nil error) means nothing durable survived
// and the caller should bootstrap from peers. Only directory-scan failures
// surface as errors.
func (s *Store) Replay(base any, next func(decode func(any) error) error) (gen int64, ok bool, err error) {
	gens, err := s.Generations()
	if err != nil {
		return 0, false, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		a, _ := os.ReadFile(s.Path(gens[i], 0))
		b, _ := os.ReadFile(s.Path(gens[i], 1))
		if replay(a, b, base, next) {
			return gens[i], true, nil
		}
	}
	return 0, false, nil
}

// replay is Replay over one segment's two copies; false when the base
// verifies and decodes in neither.
func replay(a, b []byte, base any, next func(decode func(any) error) error) bool {
	recs := records(a, b)
	if len(recs) == 0 {
		return false
	}
	var guard wire.Guard
	var body bytes.Reader // an io.ByteReader: gob reads no further than one record
	dec := gob.NewDecoder(&body)
	decode := func(rec []byte, v any) error {
		if err := guard.Check(rec, reflect.TypeOf(v).Elem()); err != nil {
			return err
		}
		body.Reset(rec)
		if err := dec.Decode(v); err != nil {
			return err
		}
		if body.Len() != 0 {
			return fmt.Errorf("store: %d bytes after the record", body.Len())
		}
		return nil
	}
	reflect.ValueOf(base).Elem().SetZero()
	if decode(recs[0], base) != nil {
		return false
	}
	for _, rec := range recs[1:] {
		if next == nil || next(func(v any) error { return decode(rec, v) }) != nil {
			break
		}
	}
	return true
}

// records cuts one segment's record bodies out of its two copies: at each
// offset the frame of whichever copy verifies there, up to the first
// offset where neither does. The copies hold the same bytes, so either
// serves.
func records(a, b []byte) [][]byte {
	var recs [][]byte
	for off := len(fileHeader); ; {
		body, ok := frameAt(a, off)
		if !ok {
			body, ok = frameAt(b, off)
		}
		if !ok {
			return recs
		}
		recs = append(recs, body)
		off += recHeaderLen + len(body)
	}
}

// frameAt returns the body of the record framed at data[off:], if data
// starts with the file header and one is there whole with a matching
// checksum. An empty body never verifies: gob writes none, and a run of
// zero bytes must not read as records.
func frameAt(data []byte, off int) ([]byte, bool) {
	if !bytes.HasPrefix(data, fileHeader) || len(data)-off < recHeaderLen {
		return nil, false
	}
	n := binary.BigEndian.Uint32(data[off:])
	body := data[off+recHeaderLen:]
	if n == 0 || uint64(n) > uint64(len(body)) {
		return nil, false
	}
	body = body[:n]
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(data[off+4:]) {
		return nil, false
	}
	return body, true
}

// NewestPath returns the path of copy A of the newest segment in dir, for
// harnesses that corrupt it before a restart. ok=false when dir holds no
// segments.
func NewestPath(dir string) (string, bool) {
	s := &Store{dir: dir}
	gens, err := s.Generations()
	if err != nil || len(gens) == 0 {
		return "", false
	}
	return s.Path(gens[len(gens)-1], 0), true
}
