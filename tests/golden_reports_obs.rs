#[path = "golden_reports.rs"]
mod golden_reports;
const TELEMETRY: bool = true;
