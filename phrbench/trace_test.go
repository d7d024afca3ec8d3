package main

import "testing"

func TestAttribute(t *testing.T) {
	spans := []span{
		{req: 0, kind: kHandler, parent: kClient, start: 0, end: 100},
		{req: 1, kind: kHandler, parent: kClient, start: 50, end: 150},
		{req: -1, kind: kStoreGet, parent: kHandler, key: "rec-a", start: 60, end: 70},   // inside both, names req 0's record
		{req: -1, kind: kStoreGet, parent: kHandler, key: "rec-b", start: 60, end: 70},   // inside both, names req 1's record
		{req: -1, kind: kStoreGet, parent: kHandler, key: "rec-a", start: 120, end: 130}, // names req 0's record, outside it
		{req: -1, kind: kReplay, parent: kReplay, key: "rec-a", start: 10, end: 20},      // not a store span
	}
	keys := map[int32]string{0: "rec-a", 1: "rec-b"}
	attribute(spans, func(req int32) string { return keys[req] })
	for i, want := range []int32{0, 1, 0, 1, -1, -1} {
		if spans[i].req != want {
			t.Errorf("span %d: request %d, want %d", i, spans[i].req, want)
		}
	}
}
