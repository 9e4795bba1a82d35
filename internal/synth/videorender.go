package synth

import (
	"math"

	"cobra/internal/video"
	"cobra/internal/vtext"
)

// Frame geometry: quarter PAL, as in the paper.
const (
	FrameW = 384
	FrameH = 288
)

// dveDur is the duration of the digital video effect (wipe) that
// brackets replays.
const dveDur = 0.8

// RenderFrame renders the broadcast frame at time t. Rendering is a
// pure function of (race, t), so frames are generated on demand and
// never stored.
func (r *Race) RenderFrame(t float64) *video.Frame {
	f := video.NewFrame(FrameW, FrameH)
	r.RenderFrameInto(f, t)
	return f
}

// RenderFrameInto renders the broadcast frame at time t over f, a
// FrameW×FrameH frame whose old pixels it overwrites: every scene
// starts from background bands that cover the whole frame, so f needs
// no clearing and can be recycled frame after frame.
func (r *Race) RenderFrameInto(f *video.Frame, t float64) {
	if rep, ok := r.replayAt(t); ok {
		// A replay re-shows its source event; wipes at both edges.
		src := r.sourceOf(rep)
		prog := (t - rep.Start) / (rep.End - rep.Start)
		replayTime := src.Start + prog*(src.End-src.Start)
		r.renderScene(f, replayTime, int64(9999))
		switch {
		case t-rep.Start < dveDur:
			live := video.NewFrame(FrameW, FrameH)
			r.renderScene(live, t, int64(r.shotIndexAt(t)))
			wipe(f, live, f, (t-rep.Start)/dveDur)
		case rep.End-t < dveDur:
			live := video.NewFrame(FrameW, FrameH)
			r.renderScene(live, t, int64(r.shotIndexAt(t)))
			wipe(f, f, live, 1-(rep.End-t)/dveDur)
		}
	} else {
		r.renderScene(f, t, int64(r.shotIndexAt(t)))
	}
	r.renderCaption(f, t)
	r.addPixelNoise(f, t)
}

// sourceOf finds the event a replay re-shows (same driver, nearest
// preceding passing/fly-out); falls back to the replay window itself.
func (r *Race) sourceOf(rep TrueEvent) TrueEvent {
	best := rep
	for _, e := range r.Events {
		if e.Type != EventPassing && e.Type != EventFlyOut {
			continue
		}
		if e.End <= rep.Start && e.Driver == rep.Driver {
			best = e
		}
	}
	return best
}

// wipe composites left-to-right from a to b at progress p into dst.
// dst may alias a or b.
func wipe(dst, a, b *video.Frame, p float64) {
	split := 3 * min(max(int(p*float64(dst.W)), 0), dst.W)
	stride := 3 * dst.W
	for y := 0; y < dst.H; y++ {
		row := y * stride
		copy(dst.Pix[row:row+split], b.Pix[row:row+split])
		copy(dst.Pix[row+split:row+stride], a.Pix[row+split:row+stride])
	}
}

// renderScene draws the live picture at time t for the given shot
// context (camera angle and scenery vary per shot).
func (r *Race) renderScene(f *video.Frame, t float64, shot int64) {
	seed := r.Seed + shot*7919
	// Camera: pan plus profile-dependent shake.
	shotStart := 0.0
	if idx := r.shotIndexAt(t); idx > 0 && idx-1 < len(r.ShotBoundaries) {
		shotStart = r.ShotBoundaries[idx-1]
	}
	pan := (t - shotStart) * r.Profile.PanSpeed * FPS
	frameNo := int64(t * FPS)
	shake := (hash01(seed+3, frameNo) - 0.5) * 2 * r.Profile.CameraShake * 4
	offset := int(pan + shake)

	// Scene layout varies by shot: horizon height, palette and camera
	// position (trackside, crowd, pit lane). Event shots always show
	// the track so their overlays land on plausible scenery.
	horizon := 60 + int(hash01(seed, 1)*100)
	trackTop := horizon + 50 + int(hash01(seed, 2)*60)
	tint := byte(hash01(seed, 3) * 70)
	skyTint := byte(hash01(seed, 6) * 80)
	grassTint := byte(hash01(seed, 7) * 80)
	sceneType := r.sceneTypeOf(shot)
	if _, ok := r.eventAt(t); ok {
		sceneType = 0
	}
	switch sceneType {
	case 1:
		// Grandstand shot: busy colorful crowd above the track.
		f.FillRect(0, 0, FrameW, horizon, 90+tint/2, 80, 90)
		for by := 0; by < horizon; by += 8 {
			for bx := 0; bx < FrameW; bx += 12 {
				// Blue-green crowd mosaic; strong reds are avoided so
				// the grandstand never mimics the start semaphore.
				c := byte(60 + 180*hash01(seed, int64(bx*977+by)))
				f.FillRect(bx-offset%12, by, bx-offset%12+10, by+7, 40+c/4, c, 255-c)
			}
		}
		f.FillRect(0, horizon, FrameW, trackTop, 120, 120, 126)
		f.FillRect(0, trackTop, FrameW, FrameH, 95, 95, 100)
	case 2:
		// Pit lane: dark garage band, concrete, sponsor wall. The
		// concrete keeps a decisively cool cast (blue over green over
		// red by >= 10) so sensor noise never tips it into the warm
		// dust palette.
		f.FillRect(0, 0, FrameW, horizon, 52+tint/3, 50, 58)
		f.FillRect(0, horizon, FrameW, trackTop, 138+tint/4, 148+tint/4, 160+tint/4)
		f.FillRect(0, trackTop, FrameW, FrameH, 104, 108, 120)
	default:
		// Trackside: sky, grass, asphalt. Asphalt keeps a cool cast so
		// tint variation never drifts into the warm dust palette.
		f.FillRect(0, 0, FrameW, horizon, 110+skyTint, 150+skyTint, 200+skyTint/2)
		f.FillRect(0, horizon, FrameW, trackTop, 40+grassTint/2, 100+grassTint, 55)
		f.FillRect(0, trackTop, FrameW, FrameH, 75+tint/2, 75+tint/2, 82+tint/2)
	}

	// Billboards scroll with the camera (world-anchored).
	for b := 0; b < 6; b++ {
		wx := (b*260 - offset) % (FrameW + 260)
		if wx < -120 {
			wx += FrameW + 260
		}
		c := byte(40 + 170*hash01(seed, 10+int64(b)))
		f.FillRect(wx, horizon-24, wx+96, horizon, c, 255-c, 120)
	}

	// Gravel trap appears on fly-out shots.
	if e, ok := r.eventAt(t); ok && e.Type == EventFlyOut {
		f.FillRect(FrameW/2-40, trackTop-44, FrameW, trackTop, 205, 175, 115)
	}

	r.renderCars(f, t, seed, trackTop, offset)
	r.renderEventOverlays(f, t, seed, trackTop)
}

// sceneTypeOf picks the camera setup for a shot, never repeating the
// previous shot's setup: real broadcast direction cuts between
// visually distinct cameras.
func (r *Race) sceneTypeOf(shot int64) int {
	base := int(hash01(r.Seed+shot*7919, 4) * 3)
	if shot <= 0 {
		return base
	}
	prev := int(hash01(r.Seed+(shot-1)*7919, 4) * 3)
	if base == prev {
		base = (base + 1 + int(hash01(r.Seed+shot*7919, 5)*2)) % 3
	}
	return base
}

// renderCars draws car blobs on the track.
func (r *Race) renderCars(f *video.Frame, t float64, seed int64, trackTop, offset int) {
	type carSpec struct {
		color [3]byte
		lane  int
		speed float64
	}
	cars := []carSpec{
		{color: [3]byte{210, 30, 30}, lane: 0, speed: 34},   // Ferrari red
		{color: [3]byte{220, 220, 225}, lane: 1, speed: 31}, // silver
		{color: [3]byte{30, 60, 200}, lane: 0, speed: 29},   // blue
	}
	started := true
	var start TrueEvent
	for _, e := range r.Events {
		if e.Type == EventStart {
			start = e
			break
		}
	}
	lightsOut := start.Start + 7
	if t < lightsOut {
		started = false
	}
	passing, passProg := false, 0.0
	if e, ok := r.eventAt(t); ok && e.Type == EventPassing {
		passing = true
		passProg = (t - e.Start) / (e.End - e.Start)
	}
	for i, c := range cars {
		var x int
		if !started {
			// Grid: cars parked in formation.
			x = 80 + i*70
		} else {
			world := 40 + c.speed*(t-lightsOut)*FPS/10
			x = (int(world) - offset + i*130) % (FrameW + 160)
			if x < -60 {
				x += FrameW + 160
			}
		}
		y := trackTop + 14 + c.lane*34
		if passing {
			// The camera tracks the battle: the leading car is framed
			// near center while the overtaker sweeps across the screen
			// at ~110 px/s, which the block matcher resolves as
			// counter-motion against the (tracked) background.
			switch i {
			case 1:
				x = FrameW/2 - 22
			case 2:
				// Two lunges per battle keep lateral motion on screen
				// for most of the event.
				half := int(passProg * 2)
				frac := passProg*2 - float64(half)
				dir := 1.0
				if half == 1 {
					dir = -1
				}
				x = FrameW/2 + int(150*dir*math.Tanh(6*(frac-0.5)))
				y -= int(16 * math.Sin(passProg*math.Pi))
			}
		}
		if e, ok := r.eventAt(t); ok && e.Type == EventFlyOut && i == 2 {
			// The fly-out car veers up into the gravel.
			prog := (t - e.Start) / (e.End - e.Start)
			y = trackTop - 18 - int(prog*4)
			x = FrameW/2 + 60 + int(prog*40)
		}
		f.FillRect(x, y, x+44, y+18, c.color[0], c.color[1], c.color[2])
		// Cockpit.
		f.FillRect(x+16, y+4, x+28, y+12, 20, 20, 20)
	}
}

// renderEventOverlays draws the semaphore and fly-out dust.
func (r *Race) renderEventOverlays(f *video.Frame, t float64, seed int64, trackTop int) {
	if e, ok := r.eventAt(t); ok {
		switch e.Type {
		case EventStart:
			// The semaphore rectangle grows its horizontal dimension in
			// regular intervals, then disappears at lights-out (+7 s).
			phase := t - e.Start
			if phase < 7 {
				steps := int(phase) + 1
				w := 14 * steps
				x0 := FrameW/2 - w/2
				f.FillRect(x0, 36, x0+w, 58, 225, 25, 25)
			}
		case EventFlyOut:
			// Dust cloud grows around the stricken car.
			prog := (t - e.Start) / (e.End - e.Start)
			cx, cy := FrameW/2+80, trackTop-20
			rad := 22 + prog*58
			frameNo := int64(t * FPS)
			for dy := -int(rad); dy <= int(rad); dy++ {
				for dx := -int(rad); dx <= int(rad); dx++ {
					d := math.Hypot(float64(dx), float64(dy))
					if d > rad {
						continue
					}
					// Ragged cloud edge.
					if d > rad*0.7 && hash01(seed, frameNo, int64(dx), int64(dy)) < 0.4 {
						continue
					}
					x, y := cx+dx, cy+dy
					if x < 0 || y < 0 || x >= FrameW || y >= FrameH {
						continue
					}
					g := byte(165 + 30*hash01(seed+4, int64(dx*31+dy)))
					f.Set(x, y, g+12, g, g-28)
				}
			}
		}
	}
}

// renderCaption draws the shaded caption band and superimposed words.
func (r *Race) renderCaption(f *video.Frame, t float64) {
	var active *Caption
	for i := range r.Captions {
		c := &r.Captions[i]
		if t >= c.Start && t < c.End {
			active = c
			break
		}
	}
	if active == nil {
		return
	}
	y0, y1 := vtext.BandBounds(f.H)
	// Shaded backdrop.
	frameNo := int64(t * FPS)
	for y := y0; y < y1; y++ {
		for x := 0; x < f.W; x++ {
			v := byte(38 + 18*hash01(r.Seed+5, frameNo, int64(y*f.W+x)))
			f.Set(x, y, v, v, v+8)
		}
	}
	// Words, spaced like the recognizer expects.
	text := ""
	for i, w := range active.Words {
		if i > 0 {
			text += " "
		}
		text += w
	}
	m := vtext.RenderWord(text, 3)
	ox := (f.W - m.W) / 2
	if ox < 2 {
		ox = 2
	}
	oy := y0 + (y1-y0-m.H)/2
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			if m.At(x, y) && ox+x < f.W {
				f.Set(ox+x, oy+y, 240, 238, 110)
			}
		}
	}
}

// Sensor noise is a 64-bit LCG, one step per byte. lcgMul4 and lcgAdd4
// advance it four steps at once: s ↦ a⁴·s + c·(a³+a²+a+1) mod 2⁶⁴.
const (
	lcgMul  = 2862933555777941757
	lcgAdd  = 3037000493
	lcgMul4 = lcgMul * lcgMul * lcgMul * lcgMul % (1 << 64)
	lcgAdd4 = lcgAdd * (lcgMul*lcgMul*lcgMul + lcgMul*lcgMul + lcgMul + 1) % (1 << 64)
)

// noiseLUT[q][v] is byte v plus the noise step of an LCG state whose
// top four bits are q, saturated: v + (q-8)/2 clamped to [0, 255].
var noiseLUT = func() (lut [16][256]byte) {
	for q := range lut {
		for v := range lut[q] {
			lut[q][v] = byte(min(max(v+(q-8)/2, 0), 255))
		}
	}
	return lut
}()

// addPixelNoise adds mild sensor noise so histograms and block
// matching see realistic textures. Byte i takes the noise of the
// generator's (i+1)-th state; four interleaved lanes, each jumping four
// states per step, produce the same states as one serial generator.
func (r *Race) addPixelNoise(f *video.Frame, t float64) {
	frameNo := int64(t * FPS)
	state := uint64(r.Seed+frameNo) * 0x9e3779b97f4a7c15
	var lane [4]uint64
	for k := range lane {
		state = state*lcgMul + lcgAdd
		lane[k] = state
	}
	s0, s1, s2, s3 := lane[0], lane[1], lane[2], lane[3]
	pix := f.Pix
	i := 0
	for ; i+4 <= len(pix); i += 4 {
		p := pix[i : i+4 : i+4]
		p[0] = noiseLUT[s0>>60][p[0]]
		p[1] = noiseLUT[s1>>60][p[1]]
		p[2] = noiseLUT[s2>>60][p[2]]
		p[3] = noiseLUT[s3>>60][p[3]]
		s0 = s0*lcgMul4 + lcgAdd4
		s1 = s1*lcgMul4 + lcgAdd4
		s2 = s2*lcgMul4 + lcgAdd4
		s3 = s3*lcgMul4 + lcgAdd4
	}
	lane = [4]uint64{s0, s1, s2, s3}
	for k, v := range pix[i:] {
		pix[i+k] = noiseLUT[lane[k]>>60][v]
	}
}
