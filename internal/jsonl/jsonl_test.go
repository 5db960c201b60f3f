package jsonl

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func readAll(t *testing.T, path string) []string {
	t.Helper()
	var lines []string
	err := Read(path, func(line []byte) bool {
		lines = append(lines, string(line))
		return true
	})
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return lines
}

func TestAppendAndRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{`{"a":1}`, `{"a":2}`} {
		if err := f.Append([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Append([]byte("x")); err == nil {
		t.Fatal("append after Close succeeded")
	}
	got := readAll(t, path)
	if len(got) != 2 || got[0] != `{"a":1}` || got[1] != `{"a":2}` {
		t.Fatalf("round trip: %q", got)
	}
}

func TestMissingFileIsEmpty(t *testing.T) {
	if got := readAll(t, filepath.Join(t.TempDir(), "nope.jsonl")); len(got) != 0 {
		t.Fatalf("missing file yielded %q", got)
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte("{\"a\":1}\n{\"torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// The torn fragment is gone, so this append starts a fresh line
	// instead of merging with it.
	if err := f.Append([]byte(`{"a":2}`)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got := readAll(t, path)
	if len(got) != 2 || got[1] != `{"a":2}` {
		t.Fatalf("after torn-tail repair: %q", got)
	}
}

func TestReadToleratesOnlyFinalBadLine(t *testing.T) {
	dir := t.TempDir()
	tail := filepath.Join(dir, "tail.jsonl")
	os.WriteFile(tail, []byte("ok\nbad"), 0o644)
	var kept []string
	err := Read(tail, func(line []byte) bool {
		if strings.HasPrefix(string(line), "bad") {
			return false
		}
		kept = append(kept, string(line))
		return true
	})
	if err != nil || len(kept) != 1 {
		t.Fatalf("final bad line not tolerated: err=%v kept=%q", err, kept)
	}

	mid := filepath.Join(dir, "mid.jsonl")
	os.WriteFile(mid, []byte("ok\nbad\nok\n"), 0o644)
	err = Read(mid, func(line []byte) bool { return string(line) == "ok" })
	if err == nil {
		t.Fatal("mid-file bad line went unreported")
	}

	two := filepath.Join(dir, "two.jsonl")
	os.WriteFile(two, []byte("bad\nbad\n"), 0o644)
	err = Read(two, func(line []byte) bool { return false })
	if err == nil {
		t.Fatal("two bad lines went unreported")
	}
}

// TestCommitConcurrent: every acknowledged line is in the file at
// exactly the offset Commit returned, whoever it shared a group with.
func TestCommitConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 25
	type ack struct {
		line string
		off  int64
	}
	acks := make(chan ack, writers*each*2)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				a := fmt.Sprintf(`{"w":%d,"i":%d,"pad":"%s"}`, w, i, strings.Repeat("x", w*i))
				b := fmt.Sprintf(`{"w":%d,"i":%d,"second":true}`, w, i)
				offs, err := f.Commit([]byte(a), []byte(b))
				if err != nil {
					t.Errorf("Commit: %v", err)
					return
				}
				acks <- ack{a, offs[0]}
				acks <- ack{b, offs[1]}
			}
		}(w)
	}
	wg.Wait()
	close(acks)
	if n := f.Syncs(); n < 1 || n > writers*each {
		t.Errorf("%d fsyncs for %d commits", n, writers*each)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Commit([]byte("x")); err == nil {
		t.Error("Commit after Close succeeded")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for a := range acks {
		n++
		end := a.off + int64(len(a.line))
		if a.off < 0 || end >= int64(len(data)) || string(data[a.off:end]) != a.line || data[end] != '\n' {
			t.Fatalf("offset %d does not address %q", a.off, a.line)
		}
		if a.off > 0 && data[a.off-1] != '\n' {
			t.Fatalf("offset %d is not the start of a line", a.off)
		}
	}
	if got := len(readAll(t, path)); got != n || n != writers*each*2 {
		t.Errorf("file holds %d lines, %d acknowledged, want %d", got, n, writers*each*2)
	}
}

// gatedFile is an *os.File whose Sync parks until released and whose
// Write can be made to fail after a prefix: the two instants a group
// commit has to get right.
type gatedFile struct {
	*os.File
	inSync  chan struct{} // receives once per Sync entered
	release chan struct{} // each Sync waits for one
	writes  int
	short   int // when > 0, the next Write stores this many bytes and fails
}

func (g *gatedFile) Sync() error {
	g.inSync <- struct{}{}
	<-g.release
	return g.File.Sync()
}

func (g *gatedFile) Write(p []byte) (int, error) {
	g.writes++
	if g.short > 0 {
		n, _ := g.File.Write(p[:g.short])
		g.short = 0
		return n, errors.New("no space left on device")
	}
	return g.File.Write(p)
}

// TestCommitGroupsShareOneWriteAndRollBackTogether parks one commit in
// its fsync, lets three more queue behind it, and checks they go out as
// one write and one fsync; then does it again with a short write and
// checks the file is back at its pre-group length and all three callers
// hold the error.
func TestCommitGroupsShareOneWriteAndRollBackTogether(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g := &gatedFile{File: f.f.(*os.File), inSync: make(chan struct{}, 8), release: make(chan struct{}, 8)}
	f.f = g

	// round commits "first" alone, then three callers while it syncs;
	// their group's write stores short bytes and fails when short > 0.
	round := func(tag string, short int) (errs []error) {
		t.Helper()
		first := make(chan error, 1)
		go func() {
			_, err := f.Commit([]byte(tag + "-first"))
			first <- err
		}()
		<-g.inSync // the first group is written and parked in fsync
		g.short = short
		results := make(chan error, 3)
		for i := 0; i < 3; i++ {
			go func(i int) {
				offs, err := f.Commit([]byte(fmt.Sprintf("%s-%d", tag, i)))
				if err == nil && len(offs) != 1 {
					err = fmt.Errorf("got %d offsets", len(offs))
				}
				results <- err
			}(i)
		}
		want := len(tag+"-0\n") * 3
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			f.gmu.Lock()
			queued := f.pending != nil && len(f.pending.buf) == want
			f.gmu.Unlock()
			if queued {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the three callers never queued behind the fsync in flight")
			}
		}
		g.release <- struct{}{} // first group's fsync returns
		if err := <-first; err != nil {
			t.Fatalf("first commit: %v", err)
		}
		g.release <- struct{}{} // the second group's, if it gets that far
		for i := 0; i < 3; i++ {
			errs = append(errs, <-results)
		}
		return errs
	}

	for _, err := range round("a", 0) {
		if err != nil {
			t.Fatalf("grouped commit: %v", err)
		}
	}
	<-g.inSync
	if g.writes != 2 || f.Syncs() != 2 {
		t.Errorf("4 commits took %d writes and %d fsyncs, want 2 and 2", g.writes, f.Syncs())
	}
	before, _ := os.ReadFile(path)

	for i, err := range round("b", 5) {
		if err == nil {
			t.Errorf("caller %d of the failed group was acknowledged", i)
		}
	}
	after, _ := os.ReadFile(path)
	if want := string(before) + "b-first\n"; string(after) != want {
		t.Errorf("file after the failed group = %q, want %q (rolled back to its pre-group length)", after, want)
	}
	// The file is usable: the next line lands whole, on its own line. The
	// failed group never reached its fsync, so its release is still queued.
	if _, err := f.Commit([]byte("c")); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, path); got[len(got)-1] != "c" || got[len(got)-2] != "b-first" {
		t.Errorf("after recovery the file ends %q", got[len(got)-2:])
	}
}

// TestAppendRollsBackShortWrite is the same contract for the unsynced
// path the journals use.
func TestAppendRollsBackShortWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	f.f = &gatedFile{File: f.f.(*os.File), short: 3}
	if err := f.Append([]byte("stranded")); err == nil {
		t.Fatal("short write reported success")
	}
	if err := f.Append([]byte("next")); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, path); len(got) != 2 || got[0] != "kept" || got[1] != "next" {
		t.Errorf("after a short write the file reads %q", got)
	}
}

func TestScanReportsOffsetsOfLinesOfAnyLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	long := strings.Repeat("y", 200*1024) // longer than the reader's buffer
	content := "a\n\n" + long + "\nlast\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	err = f.Scan(func(off int64, line []byte) {
		lines = append(lines, string(line))
		if got := content[off : off+int64(len(line))]; got != string(line) || content[off+int64(len(line))] != '\n' {
			t.Errorf("offset %d does not address the %d-byte line", off, len(line))
		}
		b := make([]byte, len(line))
		if _, err := f.ReadAt(b, off); err != nil || string(b) != string(line) {
			t.Errorf("ReadAt(%d) = %v, differs from the scanned line", off, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 4 || lines[0] != "a" || lines[1] != "" || lines[2] != long || lines[3] != "last" {
		t.Errorf("scanned %d lines", len(lines))
	}
}
