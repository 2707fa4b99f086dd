package lts

import "testing"

// TestTableChunks drives the append-only table across the first
// chunk's doublings and past several full chunks, by push and by
// extend (a checker's jump to an id that arrives out of order): every record keeps
// its value, extended records read zero, and full chunks are never
// reallocated.
func TestTableChunks(t *testing.T) {
	var tb table[aPair]
	const n = 3<<tableShift + 17
	var full *aPair // the first record of the second chunk
	for i := int32(0); i < n; i++ {
		if got := tb.push(aPair{from: i, state: -i}); got != i {
			t.Fatalf("push %d returned index %d", i, got)
		}
		if i == 1<<tableShift {
			full = tb.at(i)
		}
	}
	if tb.len() != n {
		t.Fatalf("len %d, want %d", tb.len(), n)
	}
	if tb.at(1<<tableShift) != full {
		t.Fatal("a full chunk moved while the table grew")
	}
	tb.extend(n + 2<<tableShift)
	tb.extend(10) // never shrinks
	if tb.len() != n+2<<tableShift {
		t.Fatalf("len %d after extend, want %d", tb.len(), n+2<<tableShift)
	}
	for i := int32(0); i < tb.len(); i++ {
		want := aPair{}
		if i < n {
			want = aPair{from: i, state: -i}
		}
		if got := *tb.at(i); got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}

	// A table that starts with a jump skips the small first chunk's
	// doublings but not its records.
	var jump table[obsCell]
	jump.extend(tableFirst*3 + 1)
	jump.at(tableFirst * 3).pred = 7
	jump.push(obsCell{obs: 1})
	if jump.len() != tableFirst*3+2 || jump.at(tableFirst*3).pred != 7 || jump.at(tableFirst*3+1).obs != 1 {
		t.Fatalf("jump-extended table lost records: len %d", jump.len())
	}
}
