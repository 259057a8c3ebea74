package pooldbg

import (
	"strings"
	"testing"
)

// These tests exercise the sanitizer registry directly, so the
// contract holds in every build: the pooled packages only *forward*
// here under -tags pooldebug, but the registry itself is always
// compiled and always tested.

type thing struct{ id int }

func TestLifecycleIsSilentWhenClean(t *testing.T) {
	Reset()
	obj := &thing{}
	for gen := uint64(0); gen < 3; gen++ {
		acquire(obj, gen)
		checkAlive(obj, gen, gen)
		release(obj, gen)
	}
}

func TestDoubleReleasePanicsWithBothStacks(t *testing.T) {
	Reset()
	obj := &thing{}
	acquire(obj, 7)
	release(obj, 7)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double release did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value is %T, want string", r)
		}
		for _, want := range []string{
			"pooldbg: double release",
			"--- first release ---",
			"--- this release ---",
			"pooldbg_test.go", // both stacks must symbolize to real frames
		} {
			if !strings.Contains(msg, want) {
				t.Errorf("double-release panic missing %q:\n%s", want, msg)
			}
		}
	}()
	release(obj, 7)
}

func TestStaleCheckAlivePanicsWithLifetimeStacks(t *testing.T) {
	Reset()
	obj := &thing{}
	acquire(obj, 1)
	release(obj, 1)
	acquire(obj, 2) // recycled: a snapshot taken at gen 1 is now stale
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("stale CheckAlive did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value is %T, want string", r)
		}
		for _, want := range []string{
			"pooldbg: stale pooled reference",
			"retained at generation 1, object now at 2",
			"--- lifetime acquire ---",
			"--- lifetime release ---",
		} {
			if !strings.Contains(msg, want) {
				t.Errorf("stale-reference panic missing %q:\n%s", want, msg)
			}
		}
	}()
	checkAlive(obj, 1, 2)
}

func TestReacquireAfterReleaseIsClean(t *testing.T) {
	Reset()
	obj := &thing{}
	acquire(obj, 1)
	release(obj, 1)
	acquire(obj, 2)
	release(obj, 2) // a release per lifetime is not a double release
}

func TestResetForgetsHistory(t *testing.T) {
	Reset()
	obj := &thing{}
	acquire(obj, 1)
	release(obj, 1)
	Reset()
	release(obj, 1) // no recorded first release left to conflict with
}
