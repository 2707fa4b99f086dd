package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var errInjected = errors.New("injected")

// TestFailNthFiresExactlyOnce: the nth call fails and every other call
// passes, for n past the first call too.
func TestFailNthFiresExactlyOnce(t *testing.T) {
	for _, n := range []int{1, 3, 10} {
		hook := FailNth(n, errInjected)
		for call := 1; call <= 12; call++ {
			err := hook()
			if call == n && !errors.Is(err, errInjected) {
				t.Fatalf("n=%d: call %d returned %v, want the injected error", n, call, err)
			}
			if call != n && err != nil {
				t.Fatalf("n=%d: call %d returned %v, want nil", n, call, err)
			}
		}
	}
}

// TestFailNthNonPositiveNeverFires: n <= 0 disables the fault.
func TestFailNthNonPositiveNeverFires(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		hook := FailNth(n, errInjected)
		for call := 1; call <= 100; call++ {
			if err := hook(); err != nil {
				t.Fatalf("n=%d: call %d returned %v", n, call, err)
			}
		}
	}
}

// TestFailNthConcurrent: callers on many goroutines share one counter,
// so exactly one of all their calls fails. Under -race it also pins the
// counter's locking.
func TestFailNthConcurrent(t *testing.T) {
	const goroutines, perG = 8, 25
	hook := FailNth(goroutines*perG/2, errInjected)
	var wg sync.WaitGroup
	var mu sync.Mutex
	fails := 0
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := hook(); err != nil {
					mu.Lock()
					fails++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fails != 1 {
		t.Fatalf("%d calls failed, want exactly 1", fails)
	}
}

// TestFailingHookLeavesInnerUntouched: a hook that fails an operation
// fails it before the inner filesystem sees it — no file created, no
// byte written, nothing renamed or removed — and the bookkeeping
// records nothing.
func TestFailingHookLeavesInnerUntouched(t *testing.T) {
	fail := func() error { return errInjected }
	dir := t.TempDir()
	entries := func() int {
		t.Helper()
		es, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return len(es)
	}

	h := &Hooks{
		OnCreateTemp: func(string) error { return fail() },
		OnOpenFile:   func(string) error { return fail() },
	}
	if _, err := h.CreateTemp(dir, "x-*"); !errors.Is(err, errInjected) {
		t.Fatalf("CreateTemp: %v, want the injected error", err)
	}
	if _, err := h.OpenFile(filepath.Join(dir, "y"), os.O_CREATE|os.O_WRONLY, 0o600); !errors.Is(err, errInjected) {
		t.Fatalf("OpenFile: %v, want the injected error", err)
	}
	if n := entries(); n != 0 {
		t.Fatalf("failed creates left %d files", n)
	}
	if len(h.Created()) != 0 || h.Live() != 0 {
		t.Fatalf("failed creates were counted: created %v, live %d", h.Created(), h.Live())
	}

	h = &Hooks{
		OnWriteAt: func(string, int64, int) error { return fail() },
		OnWrite:   func(string, int) error { return fail() },
		OnRename:  func(string, string) error { return fail() },
		OnRemove:  func(string) error { return fail() },
	}
	name := filepath.Join(dir, "f")
	f, err := h.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, err := f.WriteAt([]byte("abc"), 0); n != 0 || !errors.Is(err, errInjected) {
		t.Fatalf("WriteAt: %d, %v", n, err)
	}
	if n, err := f.Write([]byte("abc")); n != 0 || !errors.Is(err, errInjected) {
		t.Fatalf("Write: %d, %v", n, err)
	}
	if b, err := os.ReadFile(name); err != nil || len(b) != 0 {
		t.Fatalf("failed writes reached the file: %q, %v", b, err)
	}
	moved := filepath.Join(dir, "g")
	if err := h.Rename(name, moved); !errors.Is(err, errInjected) {
		t.Fatalf("Rename: %v", err)
	}
	if err := h.Remove(name); !errors.Is(err, errInjected) {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := os.Stat(name); err != nil {
		t.Fatalf("failed rename/remove touched the file: %v", err)
	}
	if _, err := os.Stat(moved); !os.IsNotExist(err) {
		t.Fatalf("failed rename created its target: %v", err)
	}
	if len(h.Removed()) != 0 {
		t.Fatalf("failed remove was counted: %v", h.Removed())
	}
}

// TestHooksBookkeeping: Created lists every opened file in order, Live
// counts the open ones with a double Close counted once, and Removed
// lists only successful removals.
func TestHooksBookkeeping(t *testing.T) {
	dir := t.TempDir()
	h := &Hooks{}
	a, err := h.CreateTemp(dir, "a-*")
	if err != nil {
		t.Fatal(err)
	}
	bName := filepath.Join(dir, "b")
	b, err := h.OpenFile(bName, os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Created(); len(got) != 2 || got[0] != a.Name() || got[1] != bName {
		t.Fatalf("Created = %v, want [%s %s]", got, a.Name(), bName)
	}
	if h.Live() != 2 {
		t.Fatalf("Live = %d, want 2", h.Live())
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	_ = a.Close() // the second close errors in the OS but must not count
	if h.Live() != 1 {
		t.Fatalf("Live after a double Close = %d, want 1", h.Live())
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if h.Live() != 0 {
		t.Fatalf("Live after closing both = %d, want 0", h.Live())
	}
	if err := h.Remove(a.Name()); err != nil {
		t.Fatal(err)
	}
	if err := h.Remove(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("Remove of a missing file succeeded")
	}
	if got := h.Removed(); len(got) != 1 || got[0] != a.Name() {
		t.Fatalf("Removed = %v, want [%s]", got, a.Name())
	}
	if len(h.Created()) != 2 {
		t.Fatalf("Created changed after closes and removes: %v", h.Created())
	}
}
