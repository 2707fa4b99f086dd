package bip_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"bip"
)

// The parser fuzz targets pin the service-boundary contract bipd
// depends on: arbitrary bytes submitted as a model or property must
// come back as an error value, never a panic — a panicking parser
// would let one malformed HTTP request kill every job on the server.
// FuzzParse carries every model that parses on through the rest of
// bipd's pipeline: lint, then a bounded verification under a deadline.
// The seed corpus runs under plain `go test`, so CI exercises the
// malformed shapes below even without a fuzzing budget; `make fuzz`
// explores beyond it.

func FuzzParse(f *testing.F) {
	seeds := []string{
		// Valid: the pingpong rally, a unary connector, a guarded loop.
		"system pair\natom Ping {\n  var n: int = 0\n  port hit(n), back\n  location a, b\n  init a\n  from a to b on hit when n < 10 do n := n + 1\n  from b to a on back\n}\ninstance l : Ping\ninstance r : Ping\nconnector hit = l.hit + r.hit\nconnector back = l.back + r.back\npriority back < hit\n",
		"system g\natom C {\n  var c: int = 0\n  port inc\n  location s\n  init s\n  from s to s on inc do c := (c + 1) % 4\n}\ninstance t0 : C\nconnector i0 = t0.inc\n",
		// Malformed: every truncation and confusion a client can send.
		"",
		"system",
		"system (",
		"system x\natom A {",
		"system x\natom A { var n: int = }",
		"system x\natom A { port }",
		"system x\natom A { location a\n init b }",
		"system x\natom A { location a\n init a\n from a to b on p }",
		"system x\ninstance i :",
		"system x\ninstance i : Nope",
		"system x\nconnector c = a.p +",
		"system x\npriority lo <",
		"system x\natom A { location a\n init a }\ninstance i : A\nconnector c = i.nope",
		"atom A { }",
		"system x system y",
		"system x\natom A { location a\n init a\n from a to a on p when do q }",
		"system \x00\xff\xfe",
		"system x\natom A { var n: int = 0\n location a\n init a\n from a to a on p do n := ((((((((n",
		"system x // no body",
		// Valid: guarded data transfer, a conditional priority and an
		// invariant reach the interaction and priority compilers.
		"system d\natom A {\n  var x: int = 0\n  port p(x)\n  location s\n  init s\n  invariant x < 5\n  from s to s on p when x < 3 do x := x + 1\n}\ninstance a : A\ninstance b : A\nconnector c = a.p + b.p when a.x <= b.x do b.x := a.x + 1\nconnector u = a.p\npriority u < c when a.x == 0\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sys, err := bip.Parse(src)
		if err == nil && sys == nil {
			t.Fatalf("Parse(%q) returned neither a system nor an error", src)
		}
		if err != nil {
			return
		}
		// A parsed model is validated, so lint must accept it.
		if _, err := bip.Lint(sys); err != nil {
			t.Fatalf("Lint of parsed model %q: %v", src, err)
		}
		// Evaluation errors (a division by zero, say) are verdicts the
		// caller gets as errors; only a panic or a run that outlives its
		// deadline fails.
		const deadline = time.Second
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		defer cancel()
		start := time.Now()
		_, err = bip.Verify(sys, bip.MaxStates(64), bip.WithContext(ctx))
		if errors.Is(err, context.DeadlineExceeded) || time.Since(start) > deadline {
			t.Fatalf("Verify of %q ran past its %v deadline (err %v)", src, deadline, err)
		}
	})
}

func FuzzParseProp(f *testing.F) {
	seeds := []string{
		// Valid forms across the textual property algebra.
		"deadlockfree",
		"always(l.n <= 10)",
		"never(at(phil0, eating) & at(phil1, eating))",
		"reachable(l.n >= 1)",
		"after(hit, until(l.n >= 1, back))",
		"always(t0.c >= 0 | t1.c < 3)",
		"never(!(a.x = 1))",
		// Malformed.
		"",
		"always",
		"always(",
		"always()",
		"alwayss(((",
		"until(a.b)",
		"after(hit",
		"at(",
		"at(x)",
		"never(at(a, b) &)",
		"always(l.n <=)",
		"always(l.n <= 10))",
		"reachable(1 +* 2)",
		"\x00always(x.y = 0)",
		"always((((((((((((((((l.n",
		"deadlockfree extra",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := bip.ParseProp(src)
		if err == nil && p == nil {
			t.Fatalf("ParseProp(%q) returned neither a property nor an error", src)
		}
	})
}
