//! The output check: every SAM record is re-verified against the reference
//! and its read, then compared with the read's true origin. Nothing here
//! uses the aligner's own CIGAR or record types.

use std::collections::HashMap;

use genome::accuracy::read_is_alignable;

use crate::workloads::Inputs;

/// A read's true start may differ from a reported start by this much: a
/// local alignment may clip or shift a few bases at an end.
pub const TRUTH_TOLERANCE: u64 = 10;

/// Where a valid record puts its read on the contig.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Landing {
    /// 0-based contig position of the read's first base, had the leading
    /// soft clip been aligned (negative when the clip hangs off the contig).
    pub read_start: i64,
    pub reverse: bool,
}

fn revcomp(seq: &[u8]) -> Vec<u8> {
    seq.iter()
        .rev()
        .map(|b| match b {
            b'A' => b'T',
            b'C' => b'G',
            b'G' => b'C',
            b'T' => b'A',
            _ => b'N',
        })
        .collect()
}

/// Verify one record's `flag`, 1-based `pos` and `cigar` against the read
/// and the contig it names: the CIGAR consumes exactly the read, the
/// aligned span lies inside the contig, and every `=` / `X` column says
/// what the bases say once the read is reverse-complemented per the flag
/// (so a wrong strand bit fails here). An `N` never equals anything.
pub fn validate(
    flag: u16,
    pos: u64,
    cigar: &str,
    read: &[u8],
    contig: &[u8],
) -> Result<Landing, String> {
    if flag & !16 != 0 {
        return Err(format!("flag {flag} has bits other than the strand bit"));
    }
    let reverse = flag & 16 != 0;
    let oriented;
    let query: &[u8] = if reverse {
        oriented = revcomp(read);
        &oriented
    } else {
        read
    };
    let Some(mut t) = pos.checked_sub(1).map(|p| p as usize) else {
        return Err("position 0".into());
    };
    if t >= contig.len() {
        return Err(format!("position {pos} beyond contig of {}", contig.len()));
    }
    let t_beg = t;
    let mut q = 0usize;
    let mut leading_clip = None;
    let mut aligned_columns = 0usize;
    let mut digits = 0usize;
    let mut run = 0usize;
    for c in cigar.bytes() {
        if c.is_ascii_digit() {
            run = run
                .checked_mul(10)
                .and_then(|r| r.checked_add(usize::from(c - b'0')))
                .ok_or("CIGAR run length overflows")?;
            digits += 1;
            continue;
        }
        if digits == 0 || run == 0 {
            return Err(format!("CIGAR op {} without a length", c as char));
        }
        let (uses_q, uses_t) = match c {
            b'=' | b'X' => (true, true),
            b'I' | b'S' => (true, false),
            b'D' => (false, true),
            other => return Err(format!("CIGAR op {} not understood", other as char)),
        };
        if uses_q && q + run > query.len() {
            return Err(format!(
                "CIGAR consumes more than the {} read bases",
                query.len()
            ));
        }
        if uses_t && t + run > contig.len() {
            return Err(format!(
                "alignment runs past the contig end {}",
                contig.len()
            ));
        }
        match c {
            b'=' | b'X' => {
                for i in 0..run {
                    let (a, b) = (query[q + i], contig[t + i]);
                    let same = a == b && a != b'N';
                    if same != (c == b'=') {
                        return Err(format!(
                            "column read[{}]={} contig[{}]={} is not {}",
                            q + i,
                            a as char,
                            t + i,
                            b as char,
                            c as char
                        ));
                    }
                }
                aligned_columns += run;
            }
            b'S' if leading_clip.is_none() && q == 0 => leading_clip = Some(run),
            b'S' if q + run != query.len() => return Err("soft clip inside the alignment".into()),
            _ => {}
        }
        q += if uses_q { run } else { 0 };
        t += if uses_t { run } else { 0 };
        (run, digits) = (0, 0);
    }
    if digits != 0 {
        return Err("CIGAR ends in a number".into());
    }
    if q != query.len() {
        return Err(format!("CIGAR consumes {q} of {} read bases", query.len()));
    }
    if aligned_columns == 0 {
        return Err("no aligned column".into());
    }
    Ok(Landing {
        read_start: t_beg as i64 - leading_clip.unwrap_or(0) as i64,
        reverse,
    })
}

/// Outcome of checking one SAM file against the inputs that produced it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SamCheck {
    /// Reads whose true span lies inside one contig.
    pub attempted: usize,
    /// Attempted reads with a valid record at their true origin.
    pub correct: usize,
    /// Reads (attempted or not) owning at least one invalid record.
    pub invalid: usize,
    /// Attempted reads that are not correct, plus reads owning an invalid
    /// record that were not already counted.
    pub failed: usize,
    /// Records read.
    pub records: usize,
}

impl SamCheck {
    pub fn correct_frac(&self) -> f64 {
        self.correct as f64 / self.attempted.max(1) as f64
    }
}

/// Check every record of `sam` (the file's text). The first few invalid
/// records are described in `complaints`.
pub fn check_sam(sam: &str, inputs: &Inputs, complaints: &mut Vec<String>) -> SamCheck {
    let contigs = &inputs.contigs.contigs;
    let contig_ascii: Vec<Vec<u8>> = contigs.iter().map(|c| c.seq.to_ascii()).collect();
    let contig_of: HashMap<&str, usize> = contigs
        .iter()
        .enumerate()
        .map(|(i, c)| (c.name.as_str(), i))
        .collect();
    let read_of: HashMap<&str, usize> = inputs
        .reads
        .iter()
        .enumerate()
        .map(|(i, r)| (r.name.as_str(), i))
        .collect();
    let mut placed = vec![false; inputs.reads.len()];
    let mut invalid = vec![false; inputs.reads.len()];
    let mut orphans = 0usize;
    let mut check = SamCheck::default();
    for line in sam.lines().filter(|l| !l.starts_with('@') && !l.is_empty()) {
        check.records += 1;
        let mut f = line.split('\t');
        let (qname, flag, rname, pos, _mapq, cigar) =
            (f.next(), f.next(), f.next(), f.next(), f.next(), f.next());
        let read = qname.and_then(|q| read_of.get(q).copied());
        let verdict = (|| {
            let read = read.ok_or("read name not in reads.fq")?;
            let contig = rname
                .and_then(|r| contig_of.get(r).copied())
                .ok_or("contig name not in contigs.fa")?;
            let flag = flag
                .and_then(|s| s.parse().ok())
                .ok_or("flag is not a number")?;
            let pos = pos
                .and_then(|s| s.parse().ok())
                .ok_or("position is not a number")?;
            let cigar = cigar.ok_or("fewer than six fields")?;
            let landing = validate(
                flag,
                pos,
                cigar,
                &inputs.reads[read].seq,
                &contig_ascii[contig],
            )?;
            Ok::<_, String>((contig, landing))
        })();
        match verdict {
            Ok((contig, landing)) => {
                let r = read.expect("a verdict implies a known read");
                let truth = &inputs.reads[r].truth;
                let genome_pos = contigs[contig].genome_start as i64 + landing.read_start;
                placed[r] |= landing.reverse == truth.reverse
                    && genome_pos.abs_diff(truth.genome_start as i64) <= TRUTH_TOLERANCE;
            }
            Err(why) => {
                match read {
                    Some(r) => invalid[r] = true,
                    None => orphans += 1,
                }
                if complaints.len() < 5 {
                    complaints.push(format!("invalid SAM record ({why}): {line}"));
                }
            }
        }
    }
    for (i, r) in inputs.reads.iter().enumerate() {
        let attempted = read_is_alignable(&inputs.contigs, &r.truth, r.span);
        let correct = attempted && placed[i] && !invalid[i];
        check.attempted += usize::from(attempted);
        check.correct += usize::from(correct);
        check.failed += usize::from((attempted && !correct) || invalid[i]);
    }
    check.invalid = invalid.iter().filter(|&&b| b).count() + orphans;
    check.failed += orphans;
    check
}

#[cfg(test)]
mod tests {
    use super::*;

    //                     0         1         2         3
    //                     0123456789012345678901234567890123456789
    const CONTIG: &[u8] = b"ACGTTGCAAGGCTTAACCGGATATCGCGTTTAAACCCGGG";

    fn ok(flag: u16, pos: u64, cigar: &str, read: &[u8]) -> Landing {
        validate(flag, pos, cigar, read, CONTIG).unwrap()
    }

    fn bad(flag: u16, pos: u64, cigar: &str, read: &[u8]) -> String {
        validate(flag, pos, cigar, read, CONTIG).unwrap_err()
    }

    #[test]
    fn good_records_pass() {
        let read = &CONTIG[4..20];
        assert_eq!(
            ok(0, 5, "16=", read),
            Landing {
                read_start: 4,
                reverse: false
            }
        );
        // Reverse strand: the read is the reverse complement of the span.
        let rc = revcomp(read);
        assert_eq!(
            ok(16, 5, "16=", &rc),
            Landing {
                read_start: 4,
                reverse: true
            }
        );
        // One mismatch at read offset 3.
        let mut snp = read.to_vec();
        snp[3] = if snp[3] == b'A' { b'C' } else { b'A' };
        ok(0, 5, "3=1X12=", &snp);
        // Soft clips: 2 leading, 1 trailing; position is of the first
        // aligned base, the landing subtracts the leading clip.
        assert_eq!(ok(0, 7, "2S13=1S", read).read_start, 4);
        // A deletion of contig[10..12] and an insertion of "TT".
        let del: Vec<u8> = [&CONTIG[4..10], &CONTIG[12..22]].concat();
        ok(0, 5, "6=2D10=", &del);
        let ins: Vec<u8> = [&CONTIG[4..10], b"TT", &CONTIG[10..20]].concat();
        ok(0, 5, "6=2I10=", &ins);
        // A leading clip may hang off the contig start.
        assert_eq!(
            ok(0, 1, "3S10=", &[b"GGG", &CONTIG[..10]].concat()).read_start,
            -3
        );
    }

    #[test]
    fn an_n_is_a_mismatch_column() {
        let mut read = CONTIG[4..20].to_vec();
        read[5] = b'N';
        ok(0, 5, "5=1X10=", &read);
        assert!(bad(0, 5, "16=", &read).contains("is not ="));
    }

    #[test]
    fn bad_records_fail_with_a_reason() {
        let read = &CONTIG[4..20];
        assert!(bad(0, 5, "15=", read).contains("consumes 15 of 16"));
        assert!(bad(0, 5, "17=", read).contains("more than the 16 read bases"));
        assert!(bad(0, 6, "16=", read).contains("is not ="));
        assert!(bad(0, 5, "3=1X12=", read).contains("is not X"));
        assert!(
            bad(16, 5, "16=", read).contains("is not ="),
            "wrong strand bit"
        );
        assert!(bad(0, 0, "16=", read).contains("position 0"));
        assert!(bad(0, 41, "16=", read).contains("beyond contig"));
        assert!(bad(0, 30, "11=5D", &CONTIG[29..]).contains("past the contig end"));
        assert!(bad(4, 5, "16=", read).contains("bits other than"));
        assert!(bad(0, 5, "16M", read).contains("not understood"));
        assert!(bad(0, 5, "=", read).contains("without a length"));
        assert!(bad(0, 5, "0=16=", read).contains("without a length"));
        assert!(bad(0, 5, "16=4", read).contains("ends in a number"));
        assert!(bad(0, 5, "*", read).contains("without a length"));
        assert!(bad(0, 5, "16S", read).contains("no aligned column"));
        assert!(bad(0, 5, "4=2S10=", read).contains("soft clip inside"));
        assert!(bad(0, 5, "99999999999999999999999=", read).contains("overflows"));
    }

    #[test]
    fn check_sam_counts_truth_and_invalid_records() {
        use crate::workloads::by_name;
        let inputs = by_name("exact").unwrap().generate(3, true);
        let contig_of = |r: &crate::workloads::BenchRead| {
            inputs.contigs.contigs.iter().position(|c| {
                r.truth.genome_start >= c.genome_start
                    && r.truth.genome_start + r.span <= c.genome_start + c.seq.len()
            })
        };
        let line = |r: &crate::workloads::BenchRead, shift: usize| {
            let c = &inputs.contigs.contigs[contig_of(r).unwrap()];
            format!(
                "{}\t{}\t{}\t{}\t255\t{}=\t*\t0\t0\t*\t*\tAS:i:{}\n",
                r.name,
                if r.truth.reverse { 16 } else { 0 },
                c.name,
                r.truth.genome_start - c.genome_start + 1 + shift,
                r.seq.len(),
                r.seq.len()
            )
        };
        let alignable: Vec<_> = inputs
            .reads
            .iter()
            .filter(|r| contig_of(r).is_some())
            .collect();
        assert!(alignable.len() > 100);
        let mut sam = String::from("@HD\tVN:1.6\n");
        // Read 0: right. Read 1: shifted by one, so its columns disagree.
        // Read 2: no record. Read 3: a right record and a garbage one.
        sam += &line(alignable[0], 0);
        sam += &line(alignable[1], 1);
        sam += &line(alignable[3], 0);
        sam += &format!("{}\tnot-a-flag\n", alignable[3].name);
        sam += "nobody\t0\tctg000001\t1\t255\t5=\n";
        let mut complaints = Vec::new();
        let check = check_sam(&sam, &inputs, &mut complaints);
        assert_eq!(check.records, 5);
        assert_eq!(check.attempted, alignable.len());
        assert_eq!(check.correct, 1);
        assert_eq!(check.invalid, 3);
        assert_eq!(check.failed, alignable.len() - 1 + 1);
        assert_eq!(complaints.len(), 3);
        assert!(check.correct_frac() < 0.05);
    }
}
