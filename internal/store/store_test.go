package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"bayou/internal/spec"
	"bayou/internal/txn"
)

// payload is a representative nested value: a map (which gob sizes up
// front), a slice, and interface-typed ops whose concrete types the wire
// package registers. Records reuse the type, like a node's log does.
type payload struct {
	Name  string
	Seq   int64
	Log   []string
	Index map[string]int64
	Ops   []spec.Op
}

func sample(seq int64) payload {
	return payload{
		Name:  "replica-2",
		Seq:   seq,
		Log:   []string{"r0#1", "r1#4", "r2#2"},
		Index: map[string]int64{"ctr": seq, "gset": seq * 2},
		Ops:   []spec.Op{spec.Inc("ctr", seq)},
	}
}

// record is the payload appended after sample(base): Log grows by one
// entry per record, every other field is replaced, and the third record
// introduces a type (a transaction) mid-stream.
func record(seq int64) payload {
	p := payload{Seq: seq, Log: []string{"e" + string(rune('a'+seq%26))}, Index: map[string]int64{"ctr": seq}}
	if seq%3 == 0 {
		p.Ops = []spec.Op{txn.New().Require(spec.Withdraw("alice", seq)).Do(spec.Deposit("bob", seq)).Txn()}
	}
	return p
}

// replayAll replays the store, folding records the way a node folds its
// log, and returns the folded value with the Seq of the base and of every
// record applied.
func replayAll(t *testing.T, s *Store) (payload, []int64, int64, bool) {
	t.Helper()
	var got payload
	var seqs []int64
	gen, ok, err := s.Replay(&got, func(decode func(any) error) error {
		if len(seqs) == 0 {
			seqs = append(seqs, got.Seq)
		}
		var d payload
		if err := decode(&d); err != nil {
			return err
		}
		got.Seq, got.Index, got.Ops = d.Seq, d.Index, d.Ops
		got.Log = append(got.Log, d.Log...)
		seqs = append(seqs, d.Seq)
		return nil
	})
	if err != nil {
		t.Fatalf("replay errored: %v", err)
	}
	if ok && len(seqs) == 0 {
		seqs = []int64{got.Seq}
	}
	return got, seqs, gen, ok
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		gen, err := s.Save(sample(i))
		if err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		if gen != i {
			t.Fatalf("save %d: generation %d", i, gen)
		}
	}
	var got payload
	gen, ok, err := s.Load(&got)
	if err != nil || !ok {
		t.Fatalf("load: gen=%d ok=%v err=%v", gen, ok, err)
	}
	if gen != 5 || got.Seq != 5 || got.Index["gset"] != 10 || !reflect.DeepEqual(got.Ops, []spec.Op{spec.Inc("ctr", 5)}) {
		t.Fatalf("loaded gen %d payload %+v, want generation 5", gen, got)
	}
	gens, err := s.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 3 || gens[0] != 3 || gens[2] != 5 {
		t.Fatalf("kept generations %v, want [3 4 5]", gens)
	}
}

// TestAppendReplay: records follow their base in order, Load still sees
// only the base, and a reopened store starts a new segment before it
// appends.
func TestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(record(1)); err == nil {
		t.Fatal("append before any save succeeded")
	}
	if _, err := s.Save(sample(1)); err != nil {
		t.Fatal(err)
	}
	for seq := int64(2); seq <= 6; seq++ {
		if err := s.Append(record(seq)); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
	s.Close()
	got, seqs, gen, ok := replayAll(t, s)
	if !ok || gen != 1 || !slices.Equal(seqs, []int64{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("replay: gen=%d ok=%v seqs=%v", gen, ok, seqs)
	}
	if len(got.Log) != 3+5 || got.Index["ctr"] != 6 || len(got.Ops) != 1 {
		t.Fatalf("replay folded %+v", got)
	}
	var base payload
	if _, ok, _ := s.Load(&base); !ok || base.Seq != 1 || len(base.Log) != 3 {
		t.Fatalf("load gave %+v, want the base alone", base)
	}

	s2, err := Open(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.NeedBase() || s2.Append(record(7)) == nil {
		t.Fatal("a reopened store appended to the old segment")
	}
}

// TestNeedBaseAfterGrowth: a segment that outgrows growLimit bases asks
// for a new one.
func TestNeedBaseAfterGrowth(t *testing.T) {
	s, err := Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save(sample(1)); err != nil {
		t.Fatal(err)
	}
	for seq := int64(2); !s.NeedBase(); seq++ {
		if seq > 100 {
			t.Fatal("segment never asked for a new base")
		}
		if err := s.Append(sample(seq)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenContinuesGenerationSequence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save(sample(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save(sample(2)); err != nil {
		t.Fatal(err)
	}
	// A fresh Open (process restart) must not reuse generation numbers.
	s2, err := Open(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := s2.Save(sample(3))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 3 {
		t.Fatalf("post-restart save got generation %d, want 3", gen)
	}
}

func TestLoadEmptyDirSignalsBootstrap(t *testing.T) {
	s, err := Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	gen, ok, err := s.Load(&got)
	if err != nil {
		t.Fatalf("load on empty dir errored: %v", err)
	}
	if ok || gen != 0 {
		t.Fatalf("load on empty dir: gen=%d ok=%v, want clean bootstrap signal", gen, ok)
	}
}

// TestTornWriteSweep is the recovery sweep over the twin logs. Two
// segments are written, each a base and several records. Copy A of the
// newest is then truncated at every byte offset and, separately, flipped
// at every byte: copy B still holds every record, so replay must return
// all of them. Both copies truncated at the same offset must return
// exactly the records wholly before it (falling back a segment when the
// cut reaches into the base). A base rotten in both copies falls back to
// the previous segment, and with every file torn replay signals a clean
// bootstrap. Replay must never panic or return garbage.
func TestTornWriteSweep(t *testing.T) {
	pristine := t.TempDir()
	s, err := Open(pristine, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save(sample(1)); err != nil {
		t.Fatal(err)
	}
	for seq := int64(2); seq <= 3; seq++ {
		if err := s.Append(record(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Save(sample(10)); err != nil {
		t.Fatal(err)
	}
	for seq := int64(11); seq <= 14; seq++ {
		if err := s.Append(record(seq)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	prevSeqs, newSeqs := []int64{1, 2, 3}, []int64{10, 11, 12, 13, 14}
	file := func(gen int64, twin int) []byte {
		data, err := os.ReadFile(s.Path(gen, twin))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	whole := file(2, 0)
	if !slices.Equal(whole, file(2, 1)) {
		t.Fatal("the two copies of a segment differ")
	}
	// ends[i] is the offset just past record i of the newest segment.
	var ends []int
	for off := len(fileHeader); ; {
		body, ok := frameAt(whole, off)
		if !ok {
			break
		}
		off += recHeaderLen + len(body)
		ends = append(ends, off)
	}
	if len(ends) != len(newSeqs) || ends[len(ends)-1] != len(whole) {
		t.Fatalf("newest segment framed as %v in %d bytes", ends, len(whole))
	}

	// restore lays the pristine files out in a fresh dir with the newest
	// segment's copies replaced by a and b (nil: the file is missing).
	restore := func(t *testing.T, a, b []byte) *Store {
		t.Helper()
		dir := t.TempDir()
		for twin, data := range [][]byte{file(1, 0), file(1, 1), a, b} {
			if data == nil {
				continue
			}
			if err := os.WriteFile((&Store{dir: dir}).Path(int64(1+twin/2), twin%2), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, err := Open(dir, 3)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	expect := func(t *testing.T, st *Store, what string, gen int64, seqs []int64) {
		t.Helper()
		_, got, g, ok := replayAll(t, st)
		if !ok || g != gen || !slices.Equal(got, seqs) {
			t.Fatalf("%s: replay gave gen=%d ok=%v seqs=%v, want gen %d seqs %v", what, g, ok, got, gen, seqs)
		}
	}

	t.Run("truncate-every-boundary", func(t *testing.T) {
		for cut := 0; cut < len(whole); cut++ {
			expect(t, restore(t, whole[:cut], whole), "copy A cut at "+strconv.Itoa(cut), 2, newSeqs)
		}
		expect(t, restore(t, nil, whole), "copy A missing", 2, newSeqs)
	})

	t.Run("flip-every-byte", func(t *testing.T) {
		for off := 0; off < len(whole); off++ {
			data := slices.Clone(whole)
			data[off] ^= 0x40
			expect(t, restore(t, data, whole), "copy A flipped at "+strconv.Itoa(off), 2, newSeqs)
		}
	})

	t.Run("truncate-both-copies", func(t *testing.T) {
		for cut := 0; cut < len(whole); cut++ {
			kept := 0 // records wholly before the cut
			for kept < len(ends) && ends[kept] <= cut {
				kept++
			}
			st := restore(t, whole[:cut], whole[:cut])
			if kept == 0 {
				expect(t, st, "both cut in the base at "+strconv.Itoa(cut), 1, prevSeqs)
			} else {
				expect(t, st, "both cut at "+strconv.Itoa(cut), 2, newSeqs[:kept])
			}
		}
	})

	t.Run("newest-base-rotten", func(t *testing.T) {
		for _, off := range []int{0, len(fileHeader), len(fileHeader) + 5, ends[0] - 1} {
			a, b := slices.Clone(whole), slices.Clone(whole)
			a[off] ^= 0x01
			b[off] ^= 0x80
			expect(t, restore(t, a, b), "base flipped at "+strconv.Itoa(off), 1, prevSeqs)
		}
	})

	t.Run("all-generations-torn", func(t *testing.T) {
		st := restore(t, whole[:7], whole[:7])
		for twin := 0; twin < 2; twin++ {
			if err := os.Truncate(st.Path(1, twin), 7); err != nil {
				t.Fatal(err)
			}
		}
		var got payload
		gen, ok, err := st.Load(&got)
		if err != nil {
			t.Fatalf("load with every generation torn errored: %v", err)
		}
		if ok || gen != 0 {
			t.Fatalf("load with every generation torn: gen=%d ok=%v, want bootstrap signal", gen, ok)
		}
	})
}

func TestStrayFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	for _, stray := range []string{".snap-123.tmp", "wal-notanumber.a" + Suffix, "wal-0000000000000007.c" + Suffix, "README"} {
		if err := os.WriteFile(filepath.Join(dir, stray), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := s.Save(sample(1))
	if err != nil || gen != 1 {
		t.Fatalf("save among strays: gen=%d err=%v", gen, err)
	}
	var got payload
	if _, ok, _ := s.Load(&got); !ok || got.Seq != 1 {
		t.Fatalf("load among strays failed: ok=%v got=%+v", ok, got)
	}
}

// frameOf frames body as a record with its true length and checksum.
func frameOf(body []byte) []byte {
	var hdr [recHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(body, castagnoli))
	return append(hdr[:], body...)
}

// FuzzReplay replays a segment made of a valid base record and the fuzzed
// bytes framed as the next record with a correct length and checksum, so
// inputs reach the guard and gob rather than the CRC. Replay must return
// the base — never panic or hang — and allocate in proportion to the
// input. The seeds are the records a store really appended after that base.
func FuzzReplay(f *testing.F) {
	s, err := Open(f.TempDir(), 3)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Save(sample(1)); err != nil {
		f.Fatal(err)
	}
	for seq := int64(2); seq <= 4; seq++ {
		if err := s.Append(record(seq)); err != nil {
			f.Fatal(err)
		}
	}
	s.Close()
	data, err := os.ReadFile(s.Path(1, 0))
	if err != nil {
		f.Fatal(err)
	}
	recs := records(data, nil)
	base := data[:len(fileHeader)+recHeaderLen+len(recs[0])]
	for _, rec := range recs[1:] {
		f.Add(rec)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		seg := append(slices.Clone(base), frameOf(body)...)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var got payload
		ok := replay(seg, nil, &got, func(decode func(any) error) error {
			var d payload
			return decode(&d)
		})
		runtime.ReadMemStats(&ms1)
		if !ok || got.Seq != 1 {
			t.Fatalf("the valid base did not replay: ok=%v got=%+v", ok, got)
		}
		// Decoder engines for the types a record uses cost a fixed amount;
		// everything else must be paid for by input bytes.
		if grew, allowed := ms1.TotalAlloc-ms0.TotalAlloc, uint64(1<<20+512*len(body)); grew > allowed {
			t.Fatalf("%d-byte record allocated %d bytes (allowed %d)", len(body), grew, allowed)
		}
	})
}
