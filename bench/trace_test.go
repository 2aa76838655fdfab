package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "rep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "cell", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "cell", Start: 20, End: 50}, // overlaps the first cell
		{ID: 4, Parent: 1, Name: "score", Start: 80, End: 90},
		{ID: 5, Parent: 3, Name: "day", Start: 25, End: 45},
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	self := selfTimes(subtree(spans, 1))
	want := map[string]time.Duration{"rep": 50, "cell": 20 + 10, "score": 10, "day": 20}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self time of %s = %d, want %d", name, self[name], d)
		}
	}
	if _, ok := self["other"]; ok {
		t.Errorf("subtree of rep picked up an unrelated span")
	}
}

func TestNilSpanLogRecordsNothing(t *testing.T) {
	var l *spanLog
	id := l.begin(0, "rep", "")
	l.finish(id)
	if err := l.absorb(id, nil); err != nil || id != 0 {
		t.Errorf("nil span log: id %d, err %v", id, err)
	}
}
