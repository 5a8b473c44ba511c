package xsdtypes

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// TemporalKind distinguishes the seven XSD date/time primitive types that
// share the DateTime representation.
type TemporalKind int

// Temporal kinds.
const (
	KindDateTime TemporalKind = iota
	KindDate
	KindTime
	KindGYearMonth
	KindGYear
	KindGMonthDay
	KindGDay
	KindGMonth
)

// DateTime is a point (or partial point) on the XSD timeline. Fields that
// a given TemporalKind does not use hold their zero-point defaults, so all
// kinds share one ordering function.
type DateTime struct {
	Kind  TemporalKind
	Year  int // may be negative; 0 is not a valid year in XSD 1.0
	Month int
	Day   int
	Hour  int
	Min   int
	Sec   int
	Nanos int
	// HasTZ reports whether an explicit timezone was present; TZMin is
	// the offset in minutes east of UTC.
	HasTZ bool
	TZMin int
}

// daysInMonth returns the length of a month, honoring leap years.
func daysInMonth(year, month int) int {
	switch month {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	case 2:
		if isLeap(year) {
			return 29
		}
		return 28
	}
	return 0
}

func isLeap(year int) bool {
	return year%4 == 0 && (year%100 != 0 || year%400 == 0)
}

// parseTZ parses a trailing timezone (Z or ±hh:mm) and returns the
// remaining string.
func parseTZ(s string) (rest string, hasTZ bool, tzMin int, err error) {
	if strings.HasSuffix(s, "Z") {
		return s[:len(s)-1], true, 0, nil
	}
	if len(s) >= 6 {
		tail := s[len(s)-6:]
		if (tail[0] == '+' || tail[0] == '-') && tail[3] == ':' {
			// fixed2, not Atoi: Atoi accepts a sign, so "+-5:59" would
			// parse as hour -5 and sail under the h > 14 check.
			h, err1 := fixed2(tail[1:3], "timezone hour")
			m, err2 := fixed2(tail[4:6], "timezone minute")
			if err1 != nil || err2 != nil || h > 14 || m > 59 || (h == 14 && m != 0) {
				return "", false, 0, fmt.Errorf("bad timezone %q", tail)
			}
			off := h*60 + m
			if tail[0] == '-' {
				off = -off
			}
			return s[:len(s)-6], true, off, nil
		}
	}
	return s, false, 0, nil
}

// parseYear parses the year field (4+ digits, optional leading '-').
func parseYear(s string) (int, error) {
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	if len(s) < 4 {
		return 0, fmt.Errorf("year %q must have at least four digits", s)
	}
	if len(s) > 4 && s[0] == '0' {
		return 0, fmt.Errorf("year %q must not have extraneous leading zeros", s)
	}
	// Digits only: the lexical space has no '+', and the '-' sign was
	// already consumed above, so anything Atoi would tolerate here
	// ("+2001", "-+123") is outside the lexical space.
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, fmt.Errorf("bad year %q", s)
		}
	}
	y, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad year %q", s)
	}
	if y == 0 {
		return 0, fmt.Errorf("year 0000 is not valid in XSD 1.0")
	}
	if neg {
		y = -y
	}
	return y, nil
}

// fixed2 parses exactly two digits.
func fixed2(s string, what string) (int, error) {
	if len(s) != 2 || s[0] < '0' || s[0] > '9' || s[1] < '0' || s[1] > '9' {
		return 0, fmt.Errorf("bad %s %q", what, s)
	}
	return int(s[0]-'0')*10 + int(s[1]-'0'), nil
}

// parseTimePart parses hh:mm:ss(.fraction)?.
func parseTimePart(s string) (h, m, sec, nanos int, err error) {
	if len(s) < 8 || s[2] != ':' || s[5] != ':' {
		return 0, 0, 0, 0, fmt.Errorf("bad time %q", s)
	}
	if h, err = fixed2(s[0:2], "hour"); err != nil {
		return
	}
	if m, err = fixed2(s[3:5], "minute"); err != nil {
		return
	}
	if sec, err = fixed2(s[6:8], "second"); err != nil {
		return
	}
	rest := s[8:]
	if rest != "" {
		if rest[0] != '.' || len(rest) < 2 {
			return 0, 0, 0, 0, fmt.Errorf("bad fractional seconds in %q", s)
		}
		frac := rest[1:]
		if len(frac) > 9 {
			frac = frac[:9]
		}
		for _, r := range rest[1:] {
			if r < '0' || r > '9' {
				return 0, 0, 0, 0, fmt.Errorf("bad fractional seconds in %q", s)
			}
		}
		for len(frac) < 9 {
			frac += "0"
		}
		nanos, _ = strconv.Atoi(frac)
	}
	// 24:00:00 is permitted and means the first instant of the next day;
	// it is kept literally here and normalized in timelineSeconds.
	if h > 24 || m > 59 || sec > 59 || (h == 24 && (m != 0 || sec != 0 || nanos != 0)) {
		return 0, 0, 0, 0, fmt.Errorf("time %q out of range", s)
	}
	return
}

// checkDate validates month/day ranges.
func checkDate(year, month, day int) error {
	if month < 1 || month > 12 {
		return fmt.Errorf("month %d out of range", month)
	}
	if day < 1 || day > daysInMonth(year, month) {
		return fmt.Errorf("day %d out of range for %04d-%02d", day, year, month)
	}
	return nil
}

// ParseDateTime parses the lexical space of the given temporal kind.
func ParseDateTime(kind TemporalKind, s string) (DateTime, error) {
	var dt DateTime
	err := parseDateTime(&dt, kind, s)
	return dt, err
}

// parseDateTime is ParseDateTime into *dt, which the value path packs
// without copying the struct around.
func parseDateTime(dt *DateTime, kind TemporalKind, s string) error {
	*dt = DateTime{Kind: kind, Month: 1, Day: 1}
	body, hasTZ, tzMin, err := parseTZ(s)
	if err != nil {
		return err
	}
	dt.HasTZ, dt.TZMin = hasTZ, tzMin
	fail := func() error {
		return fmt.Errorf("bad %s value %q", temporalName(kind), s)
	}
	switch kind {
	case KindDateTime:
		ti := strings.IndexByte(body, 'T')
		if ti < 0 {
			return fail()
		}
		datePart, timePart := body[:ti], body[ti+1:]
		if err := parseDateInto(dt, datePart); err != nil {
			return err
		}
		if dt.Hour, dt.Min, dt.Sec, dt.Nanos, err = parseTimePart(timePart); err != nil {
			return err
		}
	case KindDate:
		if err := parseDateInto(dt, body); err != nil {
			return err
		}
	case KindTime:
		if dt.Hour, dt.Min, dt.Sec, dt.Nanos, err = parseTimePart(body); err != nil {
			return err
		}
		dt.Year = 1972 // arbitrary fixed reference for ordering
	case KindGYearMonth:
		i := strings.LastIndexByte(body, '-')
		if i <= 0 {
			return fail()
		}
		if dt.Year, err = parseYear(body[:i]); err != nil {
			return err
		}
		if dt.Month, err = fixed2(body[i+1:], "month"); err != nil {
			return err
		}
		if dt.Month < 1 || dt.Month > 12 {
			return fail()
		}
	case KindGYear:
		if dt.Year, err = parseYear(body); err != nil {
			return err
		}
	case KindGMonthDay:
		if !strings.HasPrefix(body, "--") || len(body) != 7 || body[4] != '-' {
			return fail()
		}
		if dt.Month, err = fixed2(body[2:4], "month"); err != nil {
			return err
		}
		if dt.Day, err = fixed2(body[5:7], "day"); err != nil {
			return err
		}
		dt.Year = 1972 // leap reference year so --02-29 is valid
		if err := checkDate(dt.Year, dt.Month, dt.Day); err != nil {
			return err
		}
	case KindGDay:
		if !strings.HasPrefix(body, "---") || len(body) != 5 {
			return fail()
		}
		if dt.Day, err = fixed2(body[3:5], "day"); err != nil {
			return err
		}
		if dt.Day < 1 || dt.Day > 31 {
			return fail()
		}
		dt.Year, dt.Month = 1972, 1
	case KindGMonth:
		if !strings.HasPrefix(body, "--") || len(body) != 4 {
			return fail()
		}
		if dt.Month, err = fixed2(body[2:4], "month"); err != nil {
			return err
		}
		if dt.Month < 1 || dt.Month > 12 {
			return fail()
		}
		dt.Year = 1972
	}
	return nil
}

// parseDateInto parses YYYY-MM-DD.
func parseDateInto(dt *DateTime, s string) error {
	// Split from the right: the year may contain '-' only as its sign.
	if len(s) < 10 || s[len(s)-3] != '-' || s[len(s)-6] != '-' {
		return fmt.Errorf("bad date %q", s)
	}
	var err error
	if dt.Year, err = parseYear(s[:len(s)-6]); err != nil {
		return err
	}
	if dt.Month, err = fixed2(s[len(s)-5:len(s)-3], "month"); err != nil {
		return err
	}
	if dt.Day, err = fixed2(s[len(s)-2:], "day"); err != nil {
		return err
	}
	return checkDate(dt.Year, dt.Month, dt.Day)
}

func temporalName(kind TemporalKind) string {
	switch kind {
	case KindDateTime:
		return "dateTime"
	case KindDate:
		return "date"
	case KindTime:
		return "time"
	case KindGYearMonth:
		return "gYearMonth"
	case KindGYear:
		return "gYear"
	case KindGMonthDay:
		return "gMonthDay"
	case KindGDay:
		return "gDay"
	case KindGMonth:
		return "gMonth"
	}
	return "temporal"
}

// daysFromCivil converts a civil date to days since 1970-01-01 (proleptic
// Gregorian calendar).
func daysFromCivil(y, m, d int) int64 {
	yy := int64(y)
	if m <= 2 {
		yy--
	}
	era := yy / 400
	if yy < 0 && yy%400 != 0 {
		era--
	}
	yoe := yy - era*400
	mm := int64(m)
	var doy int64
	if mm > 2 {
		doy = (153*(mm-3)+2)/5 + int64(d) - 1
	} else {
		doy = (153*(mm+9)+2)/5 + int64(d) - 1
	}
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return era*146097 + doe - 719468
}

// timelineSeconds maps the value onto a single timeline in seconds
// (plus nanoseconds), normalizing timezone offsets, with its year shifted
// by -shift, a multiple of 400 years (one Gregorian cycle, so the shift
// moves every value by the same whole number of days). Values without a
// timezone are treated as UTC — a documented simplification of the spec's
// partial order (the spec leaves a ±14h window indeterminate).
func (dt DateTime) timelineSeconds(shift int) (int64, int) {
	days := daysFromCivil(dt.Year-shift, dt.Month, dt.Day)
	secs := days*86400 + int64(dt.Hour)*3600 + int64(dt.Min)*60 + int64(dt.Sec)
	if dt.HasTZ {
		secs -= int64(dt.TZMin) * 60
	}
	return secs, dt.Nanos
}

// Cmp orders two temporal values of the same kind.
func (dt DateTime) Cmp(other DateTime) int {
	// A timezone moves a value across at most one year boundary, so years
	// further apart decide alone; that also keeps years too large for the
	// timeline's seconds out of it.
	if dt.Year < other.Year && uint64(other.Year)-uint64(dt.Year) > 1 {
		return -1
	}
	if dt.Year > other.Year && uint64(dt.Year)-uint64(other.Year) > 1 {
		return 1
	}
	shift := dt.Year / 400 * 400
	a, an := dt.timelineSeconds(shift)
	b, bn := other.timelineSeconds(shift)
	if a != b {
		return cmp.Compare(a, b)
	}
	return cmp.Compare(an, bn)
}

// Packing a DateTime into a Value: the year fills w0; the other fields
// share w1, and the temporal kind and timezone the kind word's bits.
const (
	dtMonthShift = 0  // 4 bits
	dtDayShift   = 4  // 5 bits
	dtHourShift  = 9  // 5 bits
	dtMinShift   = 14 // 6 bits
	dtSecShift   = 20 // 6 bits
	dtNanosShift = 26 // 30 bits

	dtKindMask = 7      // bits 0-2: the TemporalKind
	dtHasTZ    = 1 << 3 // bit 3: a timezone is present
	dtTZShift  = 4      // bits 4-14: TZMin + 840
	dtTZBias   = 14 * 60
)

// setDateTime packs dt into v as a VDateTime value.
func (v *Value) setDateTime(dt *DateTime) {
	w1 := uint64(dt.Month)<<dtMonthShift | uint64(dt.Day)<<dtDayShift |
		uint64(dt.Hour)<<dtHourShift | uint64(dt.Min)<<dtMinShift |
		uint64(dt.Sec)<<dtSecShift | uint64(dt.Nanos)<<dtNanosShift
	bits := uint32(dt.Kind)
	if dt.HasTZ {
		bits |= dtHasTZ | uint32(dt.TZMin+dtTZBias)<<dtTZShift
	}
	*v = Value{Kind: VDateTime, bits: bits, w0: uint64(dt.Year), w1: w1}
}

// DateTime returns a VDateTime value.
func (v Value) DateTime() DateTime {
	field := func(shift, width uint) int { return int(v.w1 >> shift & (1<<width - 1)) }
	dt := DateTime{
		Kind:  TemporalKind(v.bits & dtKindMask),
		Year:  int(v.w0),
		Month: field(dtMonthShift, 4),
		Day:   field(dtDayShift, 5),
		Hour:  field(dtHourShift, 5),
		Min:   field(dtMinShift, 6),
		Sec:   field(dtSecShift, 6),
		Nanos: field(dtNanosShift, 30),
	}
	if v.bits&dtHasTZ != 0 {
		dt.HasTZ = true
		dt.TZMin = int(v.bits>>dtTZShift) - dtTZBias
	}
	return dt
}

// String returns a canonical-ish lexical representation.
func (dt DateTime) String() string {
	var buf [64]byte
	b := buf[:0]
	appendYear := func() {
		if dt.Year < 0 {
			b = append(b, '-')
			b = appendPadded(b, -int64(dt.Year), 4)
		} else {
			b = appendPadded(b, int64(dt.Year), 4)
		}
	}
	two := func(sep byte, n int) {
		b = appendPadded(append(b, sep), int64(n), 2)
	}
	switch dt.Kind {
	case KindDateTime:
		appendYear()
		two('-', dt.Month)
		two('-', dt.Day)
		two('T', dt.Hour)
		two(':', dt.Min)
		two(':', dt.Sec)
		b = appendNanos(b, dt.Nanos)
	case KindDate:
		appendYear()
		two('-', dt.Month)
		two('-', dt.Day)
	case KindTime:
		b = appendPadded(b, int64(dt.Hour), 2)
		two(':', dt.Min)
		two(':', dt.Sec)
		b = appendNanos(b, dt.Nanos)
	case KindGYearMonth:
		appendYear()
		two('-', dt.Month)
	case KindGYear:
		appendYear()
	case KindGMonthDay:
		b = append(b, '-')
		two('-', dt.Month)
		two('-', dt.Day)
	case KindGDay:
		b = append(b, "--"...)
		two('-', dt.Day)
	case KindGMonth:
		b = append(b, '-')
		two('-', dt.Month)
	}
	if dt.HasTZ {
		if dt.TZMin == 0 {
			b = append(b, 'Z')
		} else {
			off := dt.TZMin
			sign := byte('+')
			if off < 0 {
				sign = '-'
				off = -off
			}
			two(sign, off/60)
			two(':', off%60)
		}
	}
	return string(b)
}

// appendPadded appends n in decimal, zero-padded to width as fmt's %0*d
// pads it: a minus sign counts toward the width.
func appendPadded(b []byte, n int64, width int) []byte {
	var digits [20]byte
	i := len(digits)
	u := uint64(n)
	if n < 0 {
		u = -u
		width--
		b = append(b, '-')
	}
	for u >= 10 {
		i--
		digits[i] = byte('0' + u%10)
		u /= 10
	}
	i--
	digits[i] = byte('0' + u)
	for w := len(digits) - i; w < width; w++ {
		b = append(b, '0')
	}
	return append(b, digits[i:]...)
}

// appendNanos appends a nonzero fraction of a second as ".ddd", without
// trailing zeros.
func appendNanos(b []byte, nanos int) []byte {
	if nanos == 0 {
		return b
	}
	return appendFraction(append(b, '.'), int64(nanos))
}

// appendFraction appends nanos as nine digits, as %09d writes them, with
// the trailing zeros dropped.
func appendFraction(b []byte, nanos int64) []byte {
	n := len(b)
	b = appendPadded(b, nanos, 9)
	end := len(b)
	for end > n && b[end-1] == '0' {
		end--
	}
	return b[:end]
}

// Duration is an xs:duration value: a (months, seconds) pair, each part
// signed together via Neg.
type Duration struct {
	Neg    bool
	Months int64
	Secs   int64
	Nanos  int64
}

// ParseDuration parses the lexical form PnYnMnDTnHnMnS.
func ParseDuration(s string) (Duration, error) {
	orig := s
	var d Duration
	if strings.HasPrefix(s, "-") {
		d.Neg = true
		s = s[1:]
	}
	if !strings.HasPrefix(s, "P") {
		return d, fmt.Errorf("duration %q must start with 'P'", orig)
	}
	s = s[1:]
	if s == "" {
		return d, fmt.Errorf("duration %q has no components", orig)
	}
	datePart, timePart := s, ""
	if i := strings.IndexByte(s, 'T'); i >= 0 {
		datePart, timePart = s[:i], s[i+1:]
		if timePart == "" {
			return d, fmt.Errorf("duration %q has a 'T' with no time components", orig)
		}
	}
	readNum := func(str string) (string, int64, string, bool, error) {
		// returns (digits, value, rest, sawDot, err); digits may include
		// one '.' only for seconds, handled by the caller.
		i := 0
		sawDot := false
		for i < len(str) && (str[i] >= '0' && str[i] <= '9' || (str[i] == '.' && !sawDot)) {
			if str[i] == '.' {
				sawDot = true
			}
			i++
		}
		if i == 0 {
			return "", 0, str, false, fmt.Errorf("expected number in duration %q", orig)
		}
		digits := str[:i]
		if sawDot {
			return digits, 0, str[i:], true, nil
		}
		v, err := strconv.ParseInt(digits, 10, 64)
		return digits, v, str[i:], false, err
	}
	// Each designator appears at most once, in the order of dateOrder and
	// timeOrder; amounts that overflow the int64 fields are rejected.
	const dateOrder, timeOrder = "YMD", "HMS"
	var rangeErr error
	add := func(acc *int64, v, scale int64) {
		if rangeErr == nil && v > (math.MaxInt64-*acc)/scale {
			rangeErr = fmt.Errorf("duration %q is out of range", orig)
		}
		*acc += v * scale
	}
	order := func(designators string, next *int, c byte) bool {
		k := strings.IndexByte(designators[*next:], c)
		*next += k + 1
		return k >= 0
	}
	seen := false
	next := 0
	for datePart != "" {
		digits, v, rest, sawDot, err := readNum(datePart)
		if err != nil {
			return d, err
		}
		if rest == "" {
			return d, fmt.Errorf("duration %q: number %q without designator", orig, digits)
		}
		if sawDot {
			return d, fmt.Errorf("duration %q: fractions only allowed on seconds", orig)
		}
		if !order(dateOrder, &next, rest[0]) {
			return d, fmt.Errorf("duration %q: bad designator %q", orig, rest[0])
		}
		switch rest[0] {
		case 'Y':
			add(&d.Months, v, 12)
		case 'M':
			add(&d.Months, v, 1)
		case 'D':
			add(&d.Secs, v, 86400)
		}
		seen = true
		datePart = rest[1:]
	}
	next = 0
	for timePart != "" {
		digits, v, rest, sawDot, err := readNum(timePart)
		if err != nil {
			return d, err
		}
		if rest == "" {
			return d, fmt.Errorf("duration %q: number %q without designator", orig, digits)
		}
		if !order(timeOrder, &next, rest[0]) {
			return d, fmt.Errorf("duration %q: bad designator %q", orig, rest[0])
		}
		if sawDot && rest[0] != 'S' {
			return d, fmt.Errorf("duration %q: fractions only allowed on seconds", orig)
		}
		switch rest[0] {
		case 'H':
			add(&d.Secs, v, 3600)
		case 'M':
			add(&d.Secs, v, 60)
		case 'S':
			if sawDot {
				dot := strings.IndexByte(digits, '.')
				whole, frac := digits[:dot], digits[dot+1:]
				// The grammar is [0-9]+(\.[0-9]+)?S: digits are required on
				// both sides of the point, so "1.S" and ".5S" are out.
				if whole == "" || frac == "" {
					return d, fmt.Errorf("duration %q: bad seconds", orig)
				}
				w, err := strconv.ParseInt(whole, 10, 64)
				if err != nil {
					return d, err
				}
				add(&d.Secs, w, 1)
				if len(frac) > 9 {
					frac = frac[:9]
				}
				for len(frac) < 9 {
					frac += "0"
				}
				d.Nanos, _ = strconv.ParseInt(frac, 10, 64)
			} else {
				add(&d.Secs, v, 1)
			}
		}
		seen = true
		timePart = rest[1:]
	}
	if rangeErr != nil {
		return d, rangeErr
	}
	if !seen {
		return d, fmt.Errorf("duration %q has no components", orig)
	}
	return d, nil
}

// signed returns the duration's months, seconds and nanoseconds with its
// sign applied to each.
func (d Duration) signed() (months, secs, nanos int64) {
	if d.Neg {
		return -d.Months, -d.Secs, -d.Nanos
	}
	return d.Months, d.Secs, d.Nanos
}

// equal reports exact equality: the same months, seconds and nanoseconds.
func (d Duration) equal(other Duration) bool {
	am, as, an := d.signed()
	bm, bs, bn := other.signed()
	return am == bm && as == bs && an == bn
}

// approxSeconds maps the duration onto seconds using the spec's reference
// month length (the spec's order is partial; like most validators we use a
// fixed conversion of 1 month = 30.436875 days, documented in DESIGN.md).
func (d Duration) approxSeconds() float64 {
	const secsPerMonth = 30.436875 * 86400
	v := float64(d.Months)*secsPerMonth + float64(d.Secs) + float64(d.Nanos)/1e9
	if d.Neg {
		return -v
	}
	return v
}

// Cmp orders two durations: exactly when their months agree, by the
// approximate total ordering when they do not.
func (d Duration) Cmp(other Duration) int {
	am, as, an := d.signed()
	bm, bs, bn := other.signed()
	switch {
	case am != bm:
		return cmp.Compare(d.approxSeconds(), other.approxSeconds())
	case as != bs:
		return cmp.Compare(as, bs)
	default:
		return cmp.Compare(an, bn)
	}
}

// String returns a canonical-ish lexical form.
func (d Duration) String() string {
	var buf [64]byte
	b := buf[:0]
	if d.Neg {
		b = append(b, '-')
	}
	b = append(b, 'P')
	mark := len(b)
	part := func(n int64, designator byte) {
		b = append(strconv.AppendInt(b, n, 10), designator)
	}
	months := d.Months
	if y := months / 12; y != 0 {
		part(y, 'Y')
		months -= y * 12
	}
	if months != 0 {
		part(months, 'M')
	}
	secs := d.Secs
	if days := secs / 86400; days != 0 {
		part(days, 'D')
		secs -= days * 86400
	}
	if secs != 0 || d.Nanos != 0 {
		b = append(b, 'T')
		if h := secs / 3600; h != 0 {
			part(h, 'H')
			secs -= h * 3600
		}
		if m := secs / 60; m != 0 {
			part(m, 'M')
			secs -= m * 60
		}
		if secs != 0 || d.Nanos != 0 {
			b = strconv.AppendInt(b, secs, 10)
			if d.Nanos != 0 {
				b = appendFraction(append(b, '.'), d.Nanos)
			}
			b = append(b, 'S')
		}
	}
	if len(b) == mark {
		b = append(b, "T0S"...)
	}
	return string(b)
}
