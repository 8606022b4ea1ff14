// Command v2vprobe inspects VMF media files, the V2V analogue of ffprobe:
// it prints the stream header, duration, keyframe cadence, and (with
// -packets) the packet index.
//
// Usage:
//
//	v2vprobe [-packets] [-stamps] file.vmf...
package main

import (
	"flag"
	"fmt"
	"os"

	"v2v/internal/container"
	"v2v/internal/frame"
	"v2v/internal/media"
)

func main() {
	var (
		packets = flag.Bool("packets", false, "dump the packet index")
		stamps  = flag.Bool("stamps", false, "decode every frame and print its embedded frame-ID stamp")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: v2vprobe [-packets] [-stamps] file.vmf...")
		os.Exit(2)
	}
	status := 0
	for _, path := range flag.Args() {
		if err := probe(path, *packets, *stamps); err != nil {
			fmt.Fprintf(os.Stderr, "v2vprobe: %s: %v\n", path, err)
			status = 1
		}
	}
	os.Exit(status)
}

func probe(path string, packets, stamps bool) error {
	r, err := container.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	info := r.Info()
	fmt.Printf("%s:\n", path)
	fmt.Printf("  codec    %s\n", info.Codec)
	fmt.Printf("  video    %dx%d @ %s fps, quality %d, flate level %d\n",
		info.Width, info.Height, info.FPS, info.Quality, info.Level)
	fmt.Printf("  frames   %d (%s seconds)\n", r.NumPackets(), r.Duration())
	fmt.Printf("  start    %s\n", info.Start)

	keys := 0
	var bytes int64
	for i := 0; i < r.NumPackets(); i++ {
		rec := r.Record(i)
		bytes += int64(rec.Size)
		if rec.Key {
			keys++
		}
	}
	fmt.Printf("  size     %d bytes payload\n", bytes)
	if keys > 0 {
		fmt.Printf("  keyframes %d (every ~%.1f frames; header GOP hint %d)\n",
			keys, float64(r.NumPackets())/float64(keys), info.GOP)
	}
	if packets {
		fmt.Println("  packets:")
		for i := 0; i < r.NumPackets(); i++ {
			rec := r.Record(i)
			marker := " "
			if rec.Key {
				marker = "K"
			}
			fmt.Printf("    %6d %s pts=%-8d t=%-10s size=%d\n", i, marker, rec.PTS, info.TimeOf(rec.PTS), rec.Size)
		}
	}
	if stamps {
		mr, err := media.OpenReader(path)
		if err != nil {
			return err
		}
		defer mr.Close()
		fmt.Println("  stamps:")
		for i := 0; i < mr.NumFrames(); i++ {
			fr, err := mr.FrameAtIndex(i)
			if err != nil {
				return err
			}
			id, ok := frame.ReadStamp(fr)
			fr.Release()
			if ok {
				fmt.Printf("    %6d -> source frame %d\n", i, id)
			} else {
				fmt.Printf("    %6d -> (no stamp)\n", i)
			}
		}
	}
	return nil
}
