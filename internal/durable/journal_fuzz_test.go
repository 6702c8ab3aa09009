package durable

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay builds a journal from fuzzed records and replays it.
// Every line of records that parses as a Record is journaled with a
// recomputed CRC, since random bytes almost never carry a valid one; tail is
// appended as it is (torn lines, flipped bits, garbage). Open must never
// panic, and a second Open over the journal the first one compacted must
// recover the same jobs and the same MaxSeq, with no corrupt line.
func FuzzJournalReplay(f *testing.F) {
	lines := func(rs ...Record) []byte {
		var b []byte
		for _, r := range rs {
			line, err := json.Marshal(r)
			if err != nil {
				f.Fatal(err)
			}
			b = append(append(b, line...), '\n')
		}
		return b
	}
	encoded := func(r Record) []byte {
		line, err := encodeRecord(r)
		if err != nil {
			f.Fatal(err)
		}
		return line
	}
	submitted := func(seq uint64, id, tenant string) Record {
		return Record{Seq: seq, Event: EventSubmitted, JobID: id, Tenant: tenant, Request: json.RawMessage(`{"tau_g":5,"tau_b":50}`)}
	}
	// A clean journal.
	f.Add(lines(
		submitted(1, "j000001", "a"),
		Record{Seq: 1, Event: EventStarted, JobID: "j000001"},
		submitted(2, "j000002", "b"),
		Record{Seq: 1, Event: EventFinished, JobID: "j000001", State: "done"},
	), []byte(nil))
	// A torn tail: the last append cut short by a crash.
	torn := encoded(submitted(3, "j000003", "t"))
	f.Add(lines(submitted(1, "j000001", "t"), submitted(2, "j000002", "t")), torn[:len(torn)/2])
	// A bit flip in a middle line.
	flipped := encoded(submitted(2, "j000002", "t"))
	flipped[len(flipped)/2] ^= 0x10
	f.Add(lines(submitted(1, "j000001", "t")), append(flipped, encoded(submitted(3, "j000003", "t"))...))
	// Transitions journaled before their submission, one never submitted.
	f.Add(lines(
		Record{Seq: 1, Event: EventStarted, JobID: "j000001"},
		Record{Seq: 2, Event: EventStarted, JobID: "j000002"},
		Record{Seq: 2, Event: EventFinished, JobID: "j000002", State: "done"},
		Record{Seq: 1, Event: EventSubmitted, JobID: "j000001", Tenant: "a"},
		Record{Seq: 2, Event: EventSubmitted, JobID: "j000002", Tenant: "b"},
		Record{Seq: 3, Event: EventStarted, JobID: "j000003"},
	), []byte(nil))

	f.Fuzz(func(t *testing.T, records, tail []byte) {
		var journal []byte
		for _, line := range bytes.Split(records, []byte("\n")) {
			var r Record
			if json.Unmarshal(line, &r) != nil {
				continue
			}
			if enc, err := encodeRecord(r); err == nil {
				journal = append(journal, enc...)
			}
		}
		journal = append(journal, tail...)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.ndjson"), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		replay := func() *Recovered {
			s, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
			return rec
		}
		first := replay()
		second := replay()
		if second.CorruptLines != 0 || second.MaxSeq != first.MaxSeq || len(second.Jobs) != len(first.Jobs) {
			t.Fatalf("recovered %d jobs, MaxSeq %d; after compaction %d jobs, MaxSeq %d, %d corrupt lines",
				len(first.Jobs), first.MaxSeq, len(second.Jobs), second.MaxSeq, second.CorruptLines)
		}
		for i, a := range first.Jobs {
			b := second.Jobs[i]
			if a.ID != b.ID || a.Seq != b.Seq || a.Tenant != b.Tenant || a.Started != b.Started ||
				!bytes.Equal(compactJSON(a.Request), compactJSON(b.Request)) ||
				a.State != b.State || (a.Finished() && a.Error != b.Error) {
				t.Fatalf("job %d recovered as %+v, after compaction as %+v", i, a, b)
			}
		}
	})
}
