package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzReadTable hammers the table-image decoder that lockstep-serve and
// lockstep-train read from disk: no input may panic it, and an image it
// accepts, re-encoded with WriteTo, must decode to an equal table.
func FuzzReadTable(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	var images [][]byte
	for _, gran := range []Granularity{Coarse7, Fine13} {
		for _, topK := range []int{0, 3} {
			var buf bytes.Buffer
			if _, err := Train(randomTrainingSet(rng, 12), gran, topK).WriteTo(&buf); err != nil {
				f.Fatal(err)
			}
			images = append(images, buf.Bytes())
		}
	}
	for _, img := range images {
		f.Add(img)
	}
	img := images[0]
	for _, n := range []int{0, 3, 19, 20, 21, len(img) / 2, len(img) - 1} {
		f.Add(img[:n]) // truncations, inside the header and after it
	}
	for _, field := range []struct{ off, val uint32 }{
		{0, 0x4C535055}, // bad magic
		{4, 2},          // bad version
		{8, 8},          // bad granularity
	} {
		bad := bytes.Clone(img)
		binary.LittleEndian.PutUint32(bad[field.off:], field.val)
		f.Add(bad)
	}
	f.Add(append(bytes.Clone(img), 0xFF)) // trailing data

	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := ReadTable(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := tab.WriteTo(&buf); err != nil {
			t.Fatalf("re-encoding an accepted image: %v", err)
		}
		again, err := ReadTable(&buf)
		if err != nil {
			t.Fatalf("re-encoded image rejected: %v", err)
		}
		if !reflect.DeepEqual(again, tab) {
			t.Fatalf("re-encoded image decodes to a different table:\n got %+v\nwant %+v", again, tab)
		}
	})
}
