package selenc

import (
	"reflect"
	"testing"
)

// TestAppendEncodeSliceMask: the append form must extend dst with
// exactly the codewords EncodeSliceMask would return, leaving the
// existing prefix untouched — the contract streaming consumers rely on
// when accumulating one codeword buffer across many slices.
func TestAppendEncodeSliceMask(t *testing.T) {
	const m = 70
	slices := [][]CareBit{
		nil,
		{{Pos: 3, Value: true}},
		{{Pos: 0, Value: false}, {Pos: 17, Value: true}, {Pos: 69, Value: true}},
		{{Pos: 5, Value: true}, {Pos: 6, Value: true}, {Pos: 7, Value: false}, {Pos: 64, Value: false}},
	}

	var got, want []Codeword
	for _, care := range slices {
		careW, valueW := SliceMasks(m, care)
		want = append(want, EncodeSliceMask(m, careW, valueW)...)
		before := len(got)
		got = AppendEncodeSliceMask(got, m, careW, valueW)
		if !reflect.DeepEqual(got[:before], want[:before]) {
			t.Fatalf("append disturbed the existing prefix (%d codewords)", before)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("accumulated stream differs:\n got %v\nwant %v", got, want)
	}
}
