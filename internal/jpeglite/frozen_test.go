package jpeglite_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/jpeglite"
	"repro/internal/thumbnail"
)

// TestCodecOutputFrozen holds the codec's every output to digests
// recorded from the straightforward kernels it had before they computed
// each value once (three sin/cos calls per pixel in Synthetic, all 64
// multiply-adds of every 1-D transform), before those kernels were
// rewritten. The rewrite was made on the promise that no byte moves:
// Synthetic's pixels, Encode's bytes and Decode's pixels must stay what
// they were, and a kernel change that alters one is a change of the
// codec, not a speed-up. Each digest is SHA-256 over the outputs of every
// seed of its row, in order; the last column is the thumbnail path (the
// decoded image cropped and downsampled as a decompressor does, then
// encoded as the compressor does).
func TestCodecOutputFrozen(t *testing.T) {
	for _, c := range []struct {
		name                        string
		w, h, quality               int
		seeds                       []int64
		synthetic, encoded, decoded string
		thumbEncoded                string
	}{
		// The demo's default image and quality, several photos.
		{"192x128/q75", 192, 128, 75, []int64{1, 2, 3, 42, 96, 97, 1000},
			"f3d78357d6371d3a87df8ac862ec3853b5c473c4a108b06a588d235a6e0ce1d3",
			"753a07f48d38f693fde46a1e752eb975be3493f5a77449fc37a79957b8499f91",
			"40ce4903f1a5380e7f963aff566a4a72d36659fe52c6c30c7fdb128ef78ad5d6",
			"7d8e8e990b02622c2cbde81ce335a123cac2c08d706d4d1a091b1091086ce8e8"},
		// The thumbnail tests' smallConfig.
		{"64x48/q70", 64, 48, 70, []int64{42, 43, 44, 53},
			"3324187a01d77c54d84cb43e1abe7ef8bad3641a30f0f1e12f716da5bf255ebe",
			"02649fb60531e199c195db47e3ee5e41a418d76724758a22e39936d242452f32",
			"dc66150c85fab5c433a7a835052a87720ba42222a47c12355dd8e9bc935eded9",
			"884abdbd37ee28415bb0872afc220438aac679ee7b5bbfeed631a36ecc4b7d69"},
		// Sizes that are not multiples of 8: edge replication and clipping.
		{"100x101/q75", 100, 101, 75, []int64{2, 5},
			"d808b9d9b4eafaa15a747410275241f98f2655b4763c2d16e769b3b9de2c3b1b",
			"5e23381184ce013400b9939324b66689aae5491867170af53333857e9771e453",
			"319f840dd273f3da7fb7df13a4bfaeac59a6f0b71121f4f98a81a187d44830ad",
			"ae9f060d5304a89a6ae9bf2babb5a5bd5286f9649fc3c1de3b721e267bc071de"},
		{"7x13/q75", 7, 13, 75, []int64{2},
			"7ad300037717df68b18ec6e7b28c9b74caddaa0190b5e603609fe7d007e4761f",
			"587689fb3cd896ef29c670ade125276e257ac51446755762c712df953c1235db",
			"77ef34e68cfc5fc6ac895e5cc35a0137f880534518ffd977fc36793b65122553",
			"36852dd8a1642f26f9c1e012edbee5b9f524d835d63ee133e0bb27e9ee2ee4de"},
		{"65x9/q75", 65, 9, 75, []int64{3},
			"b330649028cdd614d9e75d094a4d94f574ed554f0f73d710908bb3d8c4347646",
			"94622759061697b43aee6dd75f4f97f49974b3daceb0aad523d7343b32ebfd53",
			"0d99130b1202809f11d28d8c0e81cd7b3d49c50292f94a147854538372674778",
			"57172c2847ee1d4a91cc0f11dd281340a10849916ff3524b75d988c22a9e9f60"},
		// Large enough (2w+h > synthStack) that Synthetic's terms come
		// from the heap.
		{"400x300/q75", 400, 300, 75, []int64{5},
			"e0422ecfe6f4020cc618fab01bc7f8fb4eef4e16dabbe423712e6217ced7af2b",
			"58b20898561318d86623e3c81f364f1391761833efe30218a30a4eba3681ea3a",
			"0f25422b77ad403d942a4e2bc6fbb27b84fab78abdced848a34eea35dcb367b3",
			"870d9c69617f402964aedbb05cba3875c1d2ad32f2bf2526f37cd1e20ae7e90e"},
		// The ends of the quality scale: coarse (mostly zero coefficients)
		// and fine (mostly nonzero).
		{"192x128/q10", 192, 128, 10, []int64{1, 7},
			"e605ddc8e9a75b11a92935fbaeb87eb6095524405e40f911d718df830a2fe44a",
			"98f33be36003dbcbb64271a1148f97082613ad1976c86179fc8ac3e9b8e25410",
			"aac4cc94c394d0e8d2c1f78ad7c20aa2ce68c920fc8a8a158cf7e2265122627c",
			"8f42e3a7e2f601c8817474147cb5b151efa41bd0ec1203f93d8392c68c7ae8e7"},
		{"192x128/q95", 192, 128, 95, []int64{11, 96},
			"ad5b4dffd9d092c82ecb3aa6590d9204c688e23b482b878eb27a9c4339575f3e",
			"8684035a22b6b1d57c44c6fad52a3d6b98865aab1e9e5611a9033e99a2040a96",
			"8eb096c0e5dabe8144f1955509e24bc428a42c1e33ba54dc8a09135916711905",
			"faa6762cd8c2d781fa0e4d2b042015eca8ac206cbe8397d6431c0b452c0e293d"},
	} {
		synth, enc, dec, thumb := sha256.New(), sha256.New(), sha256.New(), sha256.New()
		for _, seed := range c.seeds {
			im := jpeglite.Synthetic(c.w, c.h, seed)
			synth.Write(im.Pix)
			data := jpeglite.Encode(im, c.quality)
			enc.Write(data)
			back, err := jpeglite.Decode(data)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			if back.W != c.w || back.H != c.h {
				t.Fatalf("%s seed %d: decoded %dx%d", c.name, seed, back.W, back.H)
			}
			dec.Write(back.Pix)
			// The decompressor's crop and downsample, then the compressor's
			// encode: the bytes a thumbnail run writes.
			thumb.Write(jpeglite.Encode(back.CropCenter(thumbnail.CropFraction).Downsample(thumbnail.DownsampleStep), c.quality))
		}
		for _, d := range []struct {
			what, want string
			got        []byte
		}{
			{"Synthetic pixels", c.synthetic, synth.Sum(nil)},
			{"Encode bytes", c.encoded, enc.Sum(nil)},
			{"Decode pixels", c.decoded, dec.Sum(nil)},
			{"thumbnail bytes", c.thumbEncoded, thumb.Sum(nil)},
		} {
			if got := hex.EncodeToString(d.got); got != d.want {
				t.Errorf("%s: %s digest %s, frozen %s", c.name, d.what, got, d.want)
			}
		}
	}
}
