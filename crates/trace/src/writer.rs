//! One writer over every trace format, chosen at run time.

use std::io::Write;

use tlbsim_core::MemoryAccess;

use crate::binary::BinaryTraceWriter;
use crate::error::TraceError;
use crate::text::TextTraceWriter;
use crate::v2::V2TraceWriter;

/// A trace writer whose format is picked at run time — what `xp record`
/// and `xp convert` write through. Each variant buffers its output.
#[derive(Debug)]
pub enum TraceWriter<W: Write> {
    /// The `pc R|W vaddr` line format.
    Text(TextTraceWriter<W>),
    /// The 17-byte-record binary format.
    V1(BinaryTraceWriter<W>),
    /// The block-compressed binary format.
    V2(V2TraceWriter<W>),
}

impl<W: Write> TraceWriter<W> {
    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on write failure.
    pub fn write(&mut self, access: &MemoryAccess) -> Result<(), TraceError> {
        match self {
            TraceWriter::Text(w) => w.write(access),
            TraceWriter::V1(w) => w.write(access),
            TraceWriter::V2(w) => w.write(access),
        }
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        match self {
            TraceWriter::Text(w) => w.records_written(),
            TraceWriter::V1(w) => w.records_written(),
            TraceWriter::V2(w) => w.records_written(),
        }
    }

    /// Writes whatever the format keeps until the end (v2's last block,
    /// index and footer), flushes, and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if a trailing write or the flush fails.
    pub fn finish(self) -> Result<W, TraceError> {
        match self {
            TraceWriter::Text(w) => w.finish(),
            TraceWriter::V1(w) => w.finish(),
            TraceWriter::V2(w) => w.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::tests::decode_longhand;
    use crate::{MmapTrace, TextTraceReader, V2Trace};

    #[test]
    fn every_variant_round_trips_through_its_reader() {
        let records: Vec<MemoryAccess> = (0..300u64)
            .map(|i| MemoryAccess::read(0x400 + i % 3, i * 4096))
            .collect();
        let write = |mut writer: TraceWriter<Vec<u8>>| {
            for access in &records {
                writer.write(access).expect("in-memory write");
            }
            assert_eq!(writer.records_written(), records.len() as u64);
            writer.finish().expect("in-memory finish")
        };
        let text = write(TraceWriter::Text(TextTraceWriter::create(Vec::new())));
        let v1 = write(TraceWriter::V1(
            BinaryTraceWriter::create(Vec::new()).expect("header"),
        ));
        let v2 = write(TraceWriter::V2(
            V2TraceWriter::create_with_block_len(Vec::new(), 64).expect("header"),
        ));
        let decoded: Vec<MemoryAccess> = TextTraceReader::open(text.as_slice())
            .map(|r| r.expect("valid text record"))
            .collect();
        assert_eq!(decoded, records);
        assert_eq!(decode_longhand(&v1), records);
        let decoded: Vec<MemoryAccess> = MmapTrace::from_map(mmap::Mmap::from_vec(v1))
            .expect("v1 opens")
            .cursor()
            .map(|r| r.expect("valid v1 record"))
            .collect();
        assert_eq!(decoded, records);
        let decoded: Vec<MemoryAccess> = V2Trace::from_map(mmap::Mmap::from_vec(v2))
            .expect("v2 opens")
            .cursor()
            .map(|r| r.expect("valid v2 record"))
            .collect();
        assert_eq!(decoded, records);
    }
}
